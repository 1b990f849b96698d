"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Each test prints a single "[PASS] criterion N: ..." line on success (pytest
reports the failure line otherwise), so `pytest -v -s tests/test_acceptance.py`
reads as a checklist.
"""

import json
import math

import pytest

from allpath import balance, qbd, scalability, simnet, topology
from allpath.cli import main as cli_main
from allpath.scalability import ScalabilityParams, eval_ratios, eval_tables, grid_params
from allpath.simnet import Engine, FlowSpec, run_scenario
from allpath.topology import (
    SHORTEST_ONLY,
    enumerate_paths,
    make_crossed_grid,
    make_diamond,
    make_simple_grid,
)


def ok(n, text):
    print("\n[PASS] criterion %d: %s" % (n, text))


def test_criterion_01_simple_grid_path_counts():
    got = {n: len(enumerate_paths(make_simple_grid(n), 1, n * n, SHORTEST_ONLY))
           for n in (2, 3, 4)}
    assert got == {2: 2, 3: 6, 4: 20}
    ok(1, "simple grid corner-to-corner shortest paths = 2, 6, 20 for n = 2, 3, 4")


def test_criterion_02_crossed_grid_unique_shortest():
    for n in range(2, 7):
        paths = enumerate_paths(make_crossed_grid(n), 1, n * n, SHORTEST_ONLY)
        assert len(paths) == 1, n
    ok(2, "crossed grid n = 2..6 has exactly one corner-to-corner shortest path")


def test_criterion_03_r_ab_levels():
    for grid in (make_simple_grid, make_crossed_grid):
        for n in (2, 3, 5):
            for H, want in [(4, 1), (8, 2), (12, 3)]:
                _, r_ab = eval_ratios(grid_params(grid(n), H))
                assert r_ab == want, (grid.__name__, n, H)
    ok(3, "R_AB = 1, 2, 3 for H = 4, 8, 12 on 4 edge bridges, for both grid "
          "families and several n")


def test_criterion_04_r_fa_band():
    values = []
    for n in range(2, 13):
        r_fa, _ = eval_ratios(grid_params(make_simple_grid(n), H=12))
        values.append(r_fa)
    assert all(a > b for a, b in zip(values, values[1:])), values
    assert 3.5 <= values[-1] <= 5.5, values[-1]
    ok(4, "R_FA (H=12) decreases with n and ends in [3.5, 5.5] "
          "(n=12 value %.3f)" % values[-1])


def test_criterion_05_table_count_oracle_equivalence(census):
    checked = bounded = 0
    for n in range(2, 7):
        for hosts_per_corner in (1, 2):  # H = 4 and H = 8
            t = make_simple_grid(n, hosts_per_corner=hosts_per_corner)
            for protocol in simnet.PROTOCOLS:
                (total, b, L_e, B_E, H), bounds = census(t, protocol, seed=3)
                p = ScalabilityParams(H=H, B_E=B_E, b=b, L_e=L_e)
                t_fp, t_ap, t_bp = eval_tables(p)
                pred = {"arp_path": t_ap, "flow_path": t_fp,
                        "bridge_path": t_bp}[protocol]
                assert abs(total - pred) < 1e-9, (n, H, protocol, total, pred)
                if bounds is not None:
                    assert bounds[0] <= total <= bounds[1], (n, H, protocol, total, bounds)
                    bounded += 1
                checked += 1
    assert (checked, bounded) == (30, 20)
    ok(5, "in all 30 (grid n = 2..6, H = 4 and 8, protocol) censuses the "
          "Flow-Path total equals H(H-1)b, and the ARP-Path and Bridge-Path "
          "totals, whose equations hold by the fit of L_e, lie within the "
          "bounds set by the refresh-probe traces")


def _assert_flood_tree(eng, race_id, src_bridge):
    # every bridge holds exactly one entry stamped with the race, all under
    # one key, and following entry ports from any bridge reaches the source bridge
    keys = set()
    for start, bs in eng.bridges.items():
        stamped = [k for k, e in bs.entries.items() if e.race_id == race_id]
        assert len(stamped) == 1, (start, stamped)
        keys.update(stamped)
    assert len(keys) == 1, keys
    [key] = keys
    for start in eng.bridges:
        cur = start
        for _ in range(len(eng.bridges) + 1):
            if cur == src_bridge:
                break
            port = eng.bridges[cur].entries[key].port
            if port not in eng.bridges:  # host port: must be at the source bridge
                assert cur == src_bridge, (start, cur, port)
                break
            cur = port
        else:
            raise AssertionError("cycle while walking to the source from %r" % start)


def test_criterion_06_protocol_invariants_at_scale(bridge_arrivals):
    grid = make_simple_grid(3, hosts_per_corner=2)
    diamond = make_diamond()
    grid_hosts = sorted(grid.hosts)
    runs = frames = 0
    for seed in range(500):
        for topo in (diamond, grid):
            protocol = simnet.PROTOCOLS[seed % 3]
            eng = Engine(topo, protocol, seed=seed)
            if topo is diamond:
                src, dst = "A", "B"
            else:
                import random
                src, dst = random.Random(seed).sample(grid_hosts, 2)
            eng.add_flow(FlowSpec(src, dst, 12000, 0.0))
            rep = eng.run()
            # loop freedom: no frame reaches a bridge it already crossed,
            # whether that bridge forwards it or drops it
            for trace in bridge_arrivals:
                assert len(set(trace)) == len(trace), trace
            frames += len(bridge_arrivals)
            bridge_arrivals.clear()
            race = rep.races[0]
            for tr in (race["winning_trace"], race["reply_trace"]):
                assert tr is not None and len(set(tr)) == len(tr)
            # tree property: one exploration entry per bridge, oriented to src
            _assert_flood_tree(eng, tuple(race["race_id"]), eng.hosts[src].bridge)
            # reply path reversal (checked for every protocol; required for
            # flow_path)
            assert race["reply_trace"] == list(reversed(race["winning_trace"]))
            runs += 1
    assert runs == 1000 and frames > 10000
    ok(6, "1000 seeded runs on diamond and 3x3 grids: %d frames reach bridges, "
          "none a bridge it crossed; spanning-tree floods, reply = reversed "
          "request path" % frames)


def test_criterion_07_qbd_correctness():
    import numpy as np

    for C in (1, 5, 20):
        for rho in (0.2, 1.0, 2.0):
            m = qbd.QbdModel(C, C, rho)
            g = qbd.build_generator(m)
            dense = qbd.solve_stationary(g, "dense")
            block = qbd.solve_stationary(g, "block_tridiagonal")
            assert dense.residual < 1e-10 and block.residual < 1e-10
            assert abs(dense.pi.sum() - 1.0) < 1e-12
            assert np.abs(dense.pi - block.pi).max() < 1e-10
            assert np.abs(dense.pi - dense.pi.T).max() < 1e-12  # swap symmetry
    ok(7, "QBD: residual < 1e-10, sum(pi) = 1 +/- 1e-12, dense/block agree "
          "< 1e-10, swap symmetry for C in {1, 5, 20}, rho in {0.2, 1, 2}")


def test_criterion_08_analytic_vs_simulation():
    points = []
    for lam in (8, 16, 24, 32, 40, 48):
        _, u_analytic, _, _, _ = qbd.solve_model(20, 20, lam)
        rep = balance.simulate([20, 20], lam, 1.0, 150.0,
                               replications=24, seed=2026)
        for i in (0, 1):
            assert rep.u_ci[i] is not None
            assert abs(rep.u[i] - u_analytic) <= rep.u_ci[i], (lam, i)
        points.append(lam)
    assert len(points) == 6
    ok(8, "N=2, C=(20,20): simulated utilizations inside the 95% CI of the "
          "analytic values at all 6 load points (24 replications)")


def test_criterion_09_gap_tail_negligible():
    _, u1, _, _, gap = qbd.solve_model(20, 20, 20.0)
    assert 0.4 < u1 < 0.6  # operating point near half load
    tail = sum(p for psi, p in gap.items() if abs(psi) > 10)
    assert tail < 1e-3, tail
    ok(9, "C1=C2=20 near u=0.5: P(|gap| > 10) = %.2e < 1e-3" % tail)


def test_criterion_10_fairness_dc_mixture():
    for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
        rep = balance.simulate_dc(rho=rho, duration=2.0, replications=10, seed=7)
        assert rep.fairness_index >= 0.99, (rho, rep.fairness_index)
    ok(10, "N=6, C=20, dc mixture: Jain index >= 0.99 at all 5 load points "
           "(10 replications each)")


def test_criterion_11_erlang_b(erlang_b):
    servers = 5
    for rho in (0.4, 0.8, 1.2, 2.0):
        offered = rho * servers
        rep = balance.simulate([servers], offered, 1.0, 400.0,
                               replications=12, seed=11)
        want = erlang_b(servers, offered)
        n = len(rep.lp_reps)
        mean = sum(rep.lp_reps) / n
        var = sum((x - mean) ** 2 for x in rep.lp_reps) / (n - 1)
        se = math.sqrt(var / n)
        assert abs(mean - want) <= 3 * max(se, 1e-4), (rho, mean, want, se)
    ok(11, "N=1 loss probability matches Erlang-B within 3 standard errors "
           "at 4 load points")


def test_criterion_12_manifest_replay_determinism(tmp_path):
    scenarios = [
        ["simulate", "--topology", "grid:3", "--protocol", "bridge-path",
         "--seed", "5", "--flows", "4"],
        ["scalability", "--grid", "crossed", "--n-range", "2..4",
         "--hosts", "4,8,12"],
        ["qbd", "--c1", "20", "--c2", "20", "--rho", "0.5,1,2"],
        ["balance", "--paths", "6", "--traffic", "dcmix", "--rho", "0.6",
         "--replications", "5", "--duration", "2", "--seed", "3"],
    ]
    for k, argv in enumerate(scenarios):
        first = tmp_path / ("first%d" % k)
        second = tmp_path / ("second%d" % k)
        assert cli_main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert cli_main(["replay", str(first / "manifest.json"),
                         "--out", str(second)]) == 0
        for name in manifest["outputs"]:
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                (argv[0], name)
    ok(12, "manifest replay reproduces every output byte-for-byte for one "
           "scenario per subcommand")
