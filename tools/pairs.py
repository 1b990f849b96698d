"""Benchmark a parent revision against the working tree in alternating pairs.

    python tools/pairs.py --parent REV --workloads W[,W...] --pairs N \\
        --seconds S [--seed0 K] --out FILE

Extracts `git archive REV` into a temporary directory.  Pair i of each
workload runs `perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` in that copy and in the working tree, the parent first when i
is even and the working tree first when it is odd.  FILE gets, for each
workload and each side:
- every end-to-end metric that BENCHMARK.json declares, and the wall
  `run_s`, for every pair, with their median, q1 and q3;
- how many pairs the working tree won on each metric;
- whether every check passed and the output digests of the two sides
  were equal in every pair.

The exit status is 1 when a check failed or the digests differed in some
pair, and 0 otherwise.  Stdlib only.  The temporary directory is deleted
at the end, and every run is awaited, so no process is left running.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WALL = {"name": "run_wall_s", "unit": "s", "better": "lower"}
RUN_TIMEOUT_S = 600  # run.py stops itself after 170 s


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE).stdout


def bench(checkout, workload, seed, seconds):
    """One untraced perfbench run in checkout: its metrics, checks and output digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("pairs.py: %s exited with code %d in %s"
                         % (" ".join(argv[1:]), proc.returncode, checkout))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(checkout, "perfbench", "runs",
                           "%s-seed%d-trace0" % (workload, seed), "run.json")) as fh:
        record = json.load(fh)
    side = {name: m["value"] for name, m in last["metrics"].items()}
    side["run_wall_s"] = record["run_wall_s"]
    side["correct"] = last["correct"]
    side["outputs_sha256"] = hashlib.sha256(
        json.dumps(record["digests"], sort_keys=True).encode()).hexdigest()
    return side


def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs, metrics):
    """Per side quartiles and the working tree's wins, over pairs."""
    out = {"parent": {}, "change": {}, "change_wins": {}}
    for m in metrics:
        name = m["name"]
        for side in ("parent", "change"):
            out[side][name] = quartiles([p[side][name] for p in pairs])
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs)
        ties = sum(p["change"][name] == p["parent"][name] for p in pairs)
        out["change_wins"][name] = "%d of %d pairs, %d ties" % (wins, len(pairs), ties)
    out["all_correct"] = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
    out["outputs_equal"] = all(p["parent"]["outputs_sha256"] == p["change"]["outputs_sha256"]
                               for p in pairs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the git revision to compare against")
    ap.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed0", type=int, default=1, help="the seed of pair 0 (default 1)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.pairs < 1 or args.seconds <= 0 or "" in workloads:
        ap.error("--pairs and --seconds must be positive, and --workloads a list of names")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"] + [WALL]

    parent = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    doc = {
        "command": "python tools/pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "parent": parent,
        "change": "working tree at %s" % git("rev-parse", "HEAD").decode().strip(),
        "hardware": {"machine": platform.machine(), "processor": platform.processor(),
                     "nproc": os.cpu_count(), "python": platform.python_version()},
        "seconds": args.seconds,
        "seeds": [args.seed0 + i for i in range(args.pairs)],
        "order": "parent first in even-numbered pairs, working tree first in odd ones",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", parent))) as tar:
            tar.extractall(tmp, filter="data")
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(doc["seeds"]):
                order = [("parent", tmp), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                pair = {"seed": seed, "first": order[0][0]}
                for side, checkout in order:
                    pair[side] = bench(checkout, workload, seed, args.seconds)
                pairs.append(pair)
                print("%s seed %d: run_s parent %.4f change %.4f" % (
                    workload, seed, pair["parent"]["run_s"], pair["change"]["run_s"]),
                    flush=True)
            doc["workloads"][workload] = {"pairs": pairs, **summary(pairs, metrics)}
    doc["ok"] = all(w["all_correct"] and w["outputs_equal"] for w in doc["workloads"].values())
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, w in doc["workloads"].items():
        print("%s: run_s median parent %.4f change %.4f, change wins %s; checks %s, outputs %s"
              % (workload, w["parent"]["run_s"]["median"], w["change"]["run_s"]["median"],
                 w["change_wins"]["run_s"], "pass" if w["all_correct"] else "FAIL",
                 "equal" if w["outputs_equal"] else "DIFFER"))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
