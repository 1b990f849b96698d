"""The four benchmark workloads: generated inputs, timed calls and oracles.

Each workload turns the seed into input files and argv lists, then names the
calls of one pass.  A call either drives the CLI (``cli.main(argv)``) or a
layer's public function.  Oracles read the outputs of the first pass; they
are cheap and compare no golden bytes, so legitimate last-digit shifts pass.

Why these four:

* ``grid-control`` stresses the frame path: ARP floods, the per-bridge state
  machines and table bookkeeping on a 12x12 grid; the fluid plane idles
  because the small flows never overlap.
* ``grid-bulk`` uses the same ``simnet`` layer the other way round: few
  frames but long-lived overlapping flows, so the max-min fluid recompute
  dominates.  A frame-path change should not move it, and a fluid-plane
  change should not move ``grid-control``.
* ``balance-dc`` is bound by the balance replication kernel only.
* ``analytic`` is bound by the QBD generator, LAPACK solves and dense
  matrices; it is the only workload with a large resident set.  It stays
  apart so that a balance speed-up cannot hide a QBD regression.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from dataclasses import dataclass

PROTOCOL_NAMES = ("arp-path", "flow-path", "bridge-path")


@dataclass
class Call:
    label: str
    run: object  # () -> (exit code, result)
    out_dir: str | None = None  # CLI output directory, None for direct layer calls


@dataclass
class Pass:
    """What one workload runs in a pass, and the checks on its outputs."""

    calls: list
    # (results by label, output dirs by label) -> ([(name, ok, detail)], exact facts)
    checks: object


def cli_call(api, label, argv, work_dir):
    out = os.path.join(work_dir, "out", label)
    argv = list(argv) + ["--out", out]
    return Call(label, lambda: (api.cli.main(argv), None), out)


# Fixed order of host pairs; the seed only relabels hosts (see grid_scenario).
PAIR_ORDER_SEED = 2017


def grid_scenario(api, n, hosts_per_corner, n_flows, size_bits, gap_s, seed):
    """Scenario document: a simple n x n grid and flows over distinct host pairs.

    The flows take the ordered host pairs in one fixed shuffled order.  The
    seed permutes the hosts within each corner and seeds the engine's tie
    breaks, so every seed gives an isomorphic scenario: the number of ARP
    floods and the overlap of flows are the same, and only race outcomes
    differ.  That keeps the work of a pass nearly equal from seed to seed.
    """
    topo = api.topology.make_simple_grid(n, hosts_per_corner=hosts_per_corner)
    pairs = list(itertools.permutations(sorted(topo.hosts), 2))
    if n_flows > len(pairs):
        raise ValueError("more flows than ordered host pairs")
    random.Random(PAIR_ORDER_SEED).shuffle(pairs)
    rng = random.Random(seed)
    relabel = {}
    for bridge in sorted(set(topo.hosts.values())):
        members = sorted(h for h, b in topo.hosts.items() if b == bridge)
        shuffled = list(members)
        rng.shuffle(shuffled)
        relabel.update(zip(members, shuffled))
    flows = [{"src": relabel[a], "dst": relabel[b], "size_bits": size_bits,
              "start_time": gap_s * k}
             for k, (a, b) in enumerate(pairs[:n_flows])]
    return {"topology": topo.to_json_dict(), "seed": seed, "flows": flows}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# -- oracles on CLI outputs ---------------------------------------------------


def flow_outcomes(doc):
    """(done, unresolved, pending at end, flow count) and whether the counters agree."""
    status = [f["status"] for f in doc["flows"]]
    counters = doc["counters"]
    outcome = (status.count("done"), counters["flows_unresolved"],
               sum(1 for s in status if s in ("pending", "active")), len(status))
    agree = (outcome[0] == counters["flows_completed"] and outcome[1] == status.count("miss"))
    return outcome, agree


def traces_loop_free(doc):
    """Every bridge sequence recorded in report.json visits each bridge at most once."""
    traces = [r[k] for r in doc["races"] for k in ("winning_trace", "reply_trace")]
    traces += [f[k] for f in doc["flows"] for k in ("path", "probe_trace")]
    bad = [t for t in traces if t is not None and len(set(t)) != len(t)]
    return not bad, "%d of %d traces loop" % (len(bad), len(traces))


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def simulate_checks(call_out, protocols, check_utilization):
    """Oracles on each simulate call, and its flow outcomes by protocol."""
    checks = []
    flows = {}
    for proto in protocols:
        out = call_out["simulate." + proto]
        with open(os.path.join(out, "report.json")) as fh:
            doc = json.load(fh)
        flows[proto], agree = flow_outcomes(doc)
        checks.append(("flow_counters_agree." + proto, agree, "%r" % (doc["counters"],)))
        ok, detail = traces_loop_free(doc)
        checks.append(("traces_loop_free." + proto, ok, detail))
        if check_utilization:
            umax = max(float(r["utilization"])
                       for r in read_csv(os.path.join(out, "report.csv")))
            checks.append(("link_util_feasible." + proto, umax <= 1 + 1e-9,
                           "max utilization %.12g" % umax))
    return checks, {"flows": flows}


# -- workloads -----------------------------------------------------------------


def grid_control(api, seed, work_dir):
    # 120 flows 0.3 s apart span 36 s, longer than the 30 s learnt timer, so
    # tables fill up and entries expire while new floods keep arriving.
    scenario = os.path.join(work_dir, "grid-control.json")
    write_json(scenario, grid_scenario(api, 12, 4, 120, 12000, 0.3, seed))
    calls = [cli_call(api, "simulate." + p, ["simulate", "--scenario", scenario,
                                             "--protocol", p], work_dir)
             for p in PROTOCOL_NAMES]
    census_grids = {n: api.topology.make_simple_grid(n, hosts_per_corner=2) for n in range(2, 7)}

    def census(protocol):
        def run():
            return 0, [(n, api.simnet.measure_empirical_tables(t, protocol, seed=seed))
                       for n, t in census_grids.items()]
        return run

    for protocol in api.simnet.PROTOCOLS:
        calls.append(Call("census." + protocol, census(protocol)))

    def checks(results, call_out):
        out, facts = simulate_checks(call_out, PROTOCOL_NAMES, check_utilization=False)
        for protocol in api.simnet.PROTOCOLS:
            for n, (total, b, L_e, B_E, H) in results["census." + protocol]:
                p = api.scalability.ScalabilityParams(H=H, B_E=B_E, b=b, L_e=L_e)
                t_fp, t_ap, t_bp = api.scalability.eval_tables(p)
                pred = {"arp_path": t_ap, "flow_path": t_fp, "bridge_path": t_bp}[protocol]
                out.append(("census_equals_closed_form.%s.n%d" % (protocol, n),
                            abs(total - pred) < 1e-9, "census %r, closed form %r" % (total, pred)))
        return out, facts

    return Pass(calls, checks)


def grid_bulk(api, seed, work_dir):
    # 150 flows of 100 MB started 10 ms apart overlap almost entirely, so each
    # flow start and end re-solves max-min rates over up to ~145 active flows.
    scenario = os.path.join(work_dir, "grid-bulk.json")
    write_json(scenario, grid_scenario(api, 8, 4, 150, 800e6, 0.01, seed))
    protocols = ("arp-path", "flow-path")
    calls = [cli_call(api, "simulate." + p, ["simulate", "--scenario", scenario,
                                             "--protocol", p], work_dir)
             for p in protocols]

    def checks(results, call_out):
        return simulate_checks(call_out, protocols, check_utilization=True)

    return Pass(calls, checks)


# The exp case: N=16 paths of C=250 units at rho=0.9, holding times Exp(1 s).
EXP_PATHS, EXP_CAPACITY, EXP_RHO, EXP_DURATION, EXP_REPS = 16, 250, 0.9, 5.0, 4
# Replications of the mixture case: 10 x 2 s at N=6, C=20, rho=0.8.
DC_PATHS, DC_CAPACITY, DC_RHO, DC_DURATION, DC_REPS = 6, 20, 0.8, 2.0, 10
WARMUP_FRACTION = 0.1
# Acceptance band of the Little's-law check, in reported 95% half-widths.
# With 4 replications a single half-width is exceeded by 5% of seeds by
# design; three half-widths by 0.24% (Student t, 3 degrees of freedom).
LITTLE_BAND = 3.0


def expected_utilization(rho, lp, duration, warmup):
    """Mean carried load per unit of capacity over [warmup, duration].

    Little's law for a system that starts empty, with exponential holding
    times of mean 1 s: the mean number in service at time t is
    lambda * (1 - exp(-t)).  With 4000 units offered 3600 Erlang the system
    practically never blocks, so it behaves as an infinite-server queue.
    """
    transient = (math.exp(-warmup) - math.exp(-duration)) / (duration - warmup)
    return rho * (1 - lp) * (1 - transient)


def balance_dc(api, seed, work_dir):
    calls = [
        cli_call(api, "balance.dcmix", [
            "balance", "--traffic", "dcmix", "--paths", str(DC_PATHS),
            "--capacity", str(DC_CAPACITY), "--rho", str(DC_RHO),
            "--replications", str(DC_REPS), "--duration", str(DC_DURATION),
            "--seed", str(seed)], work_dir),
        cli_call(api, "balance.exp", [
            "balance", "--traffic", "exp", "--paths", str(EXP_PATHS),
            "--capacity", str(EXP_CAPACITY), "--rho", str(EXP_RHO),
            "--replications", str(EXP_REPS), "--duration", str(EXP_DURATION),
            "--seed", str(seed)], work_dir),
    ]

    def checks(results, call_out):
        out = []
        for label in ("balance.dcmix", "balance.exp"):
            rows = read_csv(os.path.join(call_out[label], "balance.csv"))
            in_range = all(0.0 <= float(r[k]) <= 1.0 for r in rows for k in ("u", "lp"))
            out.append(("u_lp_in_unit_interval." + label, in_range, "%d rows" % len(rows)))
            if label == "balance.dcmix":
                fi = min(float(r["fi"]) for r in rows)
                out.append(("jain_at_least_0.99.dcmix", fi >= 0.99, "Jain index %.12g" % fi))
            else:
                u = sum(float(r["u"]) for r in rows) / len(rows)
                half = sum(float(r["ci_high"]) - float(r["ci_low"]) for r in rows) / (2 * len(rows))
                want = expected_utilization(EXP_RHO, float(rows[0]["lp"]), EXP_DURATION,
                                            EXP_DURATION * WARMUP_FRACTION)
                out.append(("littles_law.exp", abs(u - want) <= LITTLE_BAND * half,
                            "mean u %.6f, expected %.6f, 95%% half-width %.2g" % (u, want, half)))
        return out, {}

    return Pass(calls, checks)


def analytic(api, seed, work_dir):
    rng = random.Random(seed)
    load60 = "%.4f" % (60 * rng.uniform(0.9, 1.1))
    loads100 = ",".join("%.4f" % (100 * x * rng.uniform(0.95, 1.05)) for x in (0.5, 1.0, 1.5))
    calls = [
        cli_call(api, "qbd.c60.dense", ["qbd", "--c1", "60", "--c2", "60", "--rho", load60,
                                        "--method", "dense"], work_dir),
        cli_call(api, "qbd.c60.block", ["qbd", "--c1", "60", "--c2", "60", "--rho", load60,
                                        "--method", "block_tridiagonal"], work_dir),
        cli_call(api, "qbd.c100.block", ["qbd", "--c1", "100", "--c2", "100", "--rho", loads100,
                                         "--method", "block_tridiagonal"], work_dir),
        cli_call(api, "scalability.simple", ["scalability", "--grid", "simple",
                                             "--n-range", "2..12", "--hosts", "4,8,12"], work_dir),
        cli_call(api, "scalability.crossed", ["scalability", "--grid", "crossed",
                                              "--n-range", "2..12", "--hosts", "4,8,12"], work_dir),
    ]

    def checks(results, call_out):
        out = []
        summaries = {label: read_csv(os.path.join(call_out[label], "qbd_summary.csv"))
                     for label in ("qbd.c60.dense", "qbd.c60.block", "qbd.c100.block")}
        for label, rows in summaries.items():
            gap = max(abs(float(r["u1"]) - float(r["u2"])) for r in rows)
            out.append(("u1_equals_u2." + label, gap <= 1e-12, "max |u1 - u2| %.3g" % gap))
        diff = max(abs(float(a[k]) - float(b[k]))
                   for a, b in zip(summaries["qbd.c60.dense"], summaries["qbd.c60.block"])
                   for k in ("u1", "u2", "lp"))
        out.append(("dense_equals_block.c60", diff <= 1e-9, "max difference %.3g" % diff))
        rows = read_csv(os.path.join(call_out["scalability.simple"], "scalability.csv"))
        bad = [r["n"] for r in rows
               if int(r["psi_paths"]) != math.comb(2 * int(r["n"]) - 2, int(r["n"]) - 1)]
        out.append(("simple_grid_path_count", not bad,
                    "%d rows, wrong at n=%s" % (len(rows), ",".join(bad) or "none")))
        return out, {}

    return Pass(calls, checks)


WORKLOADS = {
    "grid-control": grid_control,
    "grid-bulk": grid_bulk,
    "balance-dc": balance_dc,
    "analytic": analytic,
}
