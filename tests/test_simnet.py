"""Discrete-event engine: latency model, races, census, determinism."""

import json

import pytest

from allpath import simnet
from allpath.cli import main as cli_main
from allpath.simnet import (
    Engine,
    FlowSpec,
    PortQueue,
    ScenarioError,
    SimConfig,
    latency_of_hop,
    measure_empirical_tables,
    run_scenario,
)
from allpath.topology import Link, make_diamond, make_line, make_simple_grid


class TestLatency:
    def test_idle_link_arithmetic(self):
        # 1 Gbps link, 1500-byte frame, idle queue, 1 us propagation -> 13 us
        link = Link(1, 2, bandwidth_bps=1e9, prop_delay_s=1e-6)
        lat = latency_of_hop(link, 1500 * 8, PortQueue(), now=0.0)
        assert lat == pytest.approx(13e-6)

    def test_busy_queue_adds_wait(self):
        link = Link(1, 2, bandwidth_bps=1e9, prop_delay_s=1e-6)
        lat = latency_of_hop(link, 1500 * 8, PortQueue(busy_until=50e-6), now=0.0)
        assert lat == pytest.approx(63e-6)

    def test_zero_size_is_pure_propagation(self):
        link = Link(1, 2, bandwidth_bps=1e9, prop_delay_s=1e-6)
        assert latency_of_hop(link, 0, PortQueue(), now=0.0) == pytest.approx(1e-6)

    def test_busy_until_nondecreasing(self):
        q = PortQueue()
        a = q.transmit(0.0, 12000, 1e9)
        b = q.transmit(0.0, 12000, 1e9)
        assert b > a


class TestScenarios:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ScenarioError):
            Engine(make_line(2), "spanning_tree")

    def test_rejects_unknown_host(self):
        eng = Engine(make_line(2), "arp_path")
        with pytest.raises(ScenarioError):
            eng.add_flow(FlowSpec("A", "nobody", 1000, 0.0))

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_single_path_topology_learns_that_path(self, protocol):
        rep = run_scenario(make_line(4), protocol,
                           [FlowSpec("A", "B", 12000, 0.0)], seed=1, duration=1.0)
        race = rep.races[0]
        assert race["winning_trace"] == [1, 2, 3, 4]
        assert race["reply_trace"] == [4, 3, 2, 1]
        assert rep.flows[0]["probe_trace"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_determinism_same_seed_same_report(self, protocol):
        t = make_simple_grid(3, hosts_per_corner=2)
        wl = [FlowSpec("h1_0", "h9_1", 12000, 0.0),
              FlowSpec("h3_0", "h7_0", 12000, 0.0005)]
        a = run_scenario(t, protocol, wl, seed=42, duration=1.0)
        b = run_scenario(t, protocol, wl, seed=42, duration=1.0)
        assert a.to_json() == b.to_json()

    def test_conservation(self):
        t = make_simple_grid(3, hosts_per_corner=2)
        rep = run_scenario(t, "arp_path",
                           [FlowSpec("h1_0", "h9_0", 12000, 0.0)], seed=7, duration=1.0)
        c = rep.counters
        # every created frame is eventually consumed somewhere
        assert c["in_flight"] == 0
        assert c["delivered"] >= 1  # the data probe reached its destination
        assert c["dropped_duplicate"] >= 1  # grid floods always race somewhere
        assert c["dropped_miss"] == 0 and c["dropped_unresolved"] == 0

    def test_loop_freedom_in_all_traces(self):
        t = make_simple_grid(3, hosts_per_corner=2)
        rep = run_scenario(t, "arp_path",
                           [FlowSpec("h1_0", "h9_0", 12000, 0.0)], seed=7, duration=1.0)
        for trace in rep.drop_traces:
            assert len(set(trace)) == len(trace)
        for race in rep.races:
            for tr in (race["winning_trace"], race["reply_trace"]):
                assert tr is not None and len(set(tr)) == len(tr)

    def test_congested_branch_avoided(self):
        # preload the 1->2 output queue: the request copy over 1->4 wins
        t = make_diamond()
        cfg = SimConfig(initial_busy={(1, 2): 1e-3})
        rep = run_scenario(t, "arp_path", [FlowSpec("A", "B", 12000, 0.0)],
                           seed=0, duration=1.0, config=cfg)
        assert rep.races[0]["winning_trace"] == [1, 4, 3]

    def test_idle_diamond_race_is_seed_dependent(self):
        t = make_diamond()
        winners = set()
        for seed in range(20):
            rep = run_scenario(t, "arp_path", [FlowSpec("A", "B", 12000, 0.0)],
                               seed=seed, duration=1.0)
            winners.add(tuple(rep.races[0]["winning_trace"]))
        assert winners == {(1, 2, 3), (1, 4, 3)}

    def test_flow_reuse_vs_fresh_exchange(self):
        # ARP-Path reuses the learnt path for a second flow of the same pair
        t = make_line(3)
        wl = [FlowSpec("A", "B", 12000, 0.0), FlowSpec("A", "B", 12000, 0.1)]
        rep = run_scenario(t, "arp_path", wl, seed=0, duration=1.0)
        assert len(rep.races) == 1
        assert rep.flows[1]["status"] == "done"

    def test_walk_path_matches_probe_trace(self):
        for protocol in simnet.PROTOCOLS:
            eng = Engine(make_simple_grid(3), protocol, seed=5)
            eng.add_flow(FlowSpec("h1_0", "h9_0", 12000, 0.0))
            rep = eng.run(until=1.0)
            assert eng.walk_path("h1_0", "h9_0") == rep.flows[0]["probe_trace"]

    def test_utilization_bounded(self):
        t = make_simple_grid(2, hosts_per_corner=2)
        wl = [FlowSpec("h1_0", "h4_0", 5e7, 0.0), FlowSpec("h1_1", "h4_1", 5e7, 0.0)]
        rep = run_scenario(t, "arp_path", wl, seed=3, duration=2.0)
        assert rep.link_utilization
        for _t, _link, u in rep.link_utilization:
            assert 0.0 <= u <= 1.0 + 1e-12
        # the rows are written once, to report.csv
        assert "link_utilization" not in json.loads(rep.to_json())
        assert len(list(rep.utilization_csv_rows())) == len(rep.link_utilization) + 1


class TestTableSeries:
    @pytest.mark.parametrize("protocol", ["arp-path", "flow-path", "bridge-path"])
    def test_change_points_of_a_per_frame_recount(self, protocol, tmp_path, monkeypatch):
        recount = []
        handle_frame = Engine._frame_at_bridge

        def counted(eng, now, *args):
            handle_frame(eng, now, *args)
            recount.append((now, sum(len(bs.entries) for bs in eng.bridges.values())))

        monkeypatch.setattr(Engine, "_frame_at_bridge", counted)
        assert cli_main(["simulate", "--topology", "grid:3", "--protocol", protocol,
                         "--out", str(tmp_path)]) == 0
        series = [tuple(row) for row in
                  json.loads((tmp_path / "report.json").read_text())["table_series"]]
        assert all(a[1] != b[1] for a, b in zip(series, series[1:]))
        change_points = [row for i, row in enumerate(recount)
                         if i == 0 or row[1] != recount[i - 1][1]]
        assert len(recount) > len(series) > 1
        assert series == change_points


class TestCensus:
    def test_line_counts_all_protocols(self):
        # one established pair on a 3-bridge line: 6 entries, b=3, L_e=0
        t = make_line(3)
        for protocol in ("arp_path", "flow_path", "bridge_path"):
            total, b, L_e, B_E, H = measure_empirical_tables(t, protocol, seed=1)
            assert (total, b, L_e, B_E, H) == (6, 3.0, 0.0, 2, 2)

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_grid_census_matches_equations(self, protocol, n):
        from allpath.scalability import ScalabilityParams, eval_tables

        for hosts_per_corner in (1, 2):  # H = 4 and H = 8
            t = make_simple_grid(n, hosts_per_corner=hosts_per_corner)
            total, b, L_e, B_E, H = measure_empirical_tables(t, protocol, seed=3)
            p = ScalabilityParams(H=H, B_E=B_E, b=b, L_e=L_e)
            t_fp, t_ap, t_bp = eval_tables(p)
            pred = {"arp_path": t_ap, "flow_path": t_fp, "bridge_path": t_bp}[protocol]
            assert total == pytest.approx(pred, abs=1e-9), H

    def test_rejects_single_host(self):
        with pytest.raises(ScenarioError):
            measure_empirical_tables(make_line(3, hosts={"A": 1}), "arp_path")
