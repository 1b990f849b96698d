"""Discrete-event engine: latency model, races, census, determinism."""

import functools
import hashlib
import heapq
import itertools
import json
import math
import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allpath import simnet
from allpath.cli import main as cli_main
from allpath.protocol import (
    ARP_REPLY,
    BRIDGE_CLASSES,
    DATA,
    DUPLICATE,
    LEARNT_TIMER,
    LOCK_TIMER,
    MISS,
    UNRESOLVED,
    ArpPathBridge,
    ForwardingDecision,
    Frame,
    tables_csv,
)
from allpath.simnet import (
    Engine,
    FlowSpec,
    ScenarioError,
    measure_empirical_tables,
    run_scenario,
    step_py,
)
from allpath.topology import (
    Link,
    Topology,
    make_crossed_grid,
    make_diamond,
    make_line,
    make_simple_grid,
)


def _one_link_engine():
    """Bridges 1 and 2 on a 1 Gbps, 1 us link, host A on 1 and host B on 2."""
    topo = Topology([1, 2], [Link(1, 2, bandwidth_bps=1e9, prop_delay_s=1e-6)],
                    {"A": 1, "B": 2})
    return Engine(topo, "arp_path")


def _probe(size_bits):
    return Frame(kind=DATA, src_mac="A", dst_mac="B", size_bits=size_bits)


def _arrival_of_one_hop(size_bits, busy_until=0.0):
    """Arrival time _send schedules for a frame sent at t=0 over a 1 Gbps,
    1 us link from bridge 1 to bridge 2 whose output port is busy until busy_until."""
    eng = _one_link_engine()
    eng.hops[(1, 2)].busy_until = busy_until
    eng._send(1, 2, _probe(size_bits), 0.0)
    [(arrive, _tie, _seq, handler, args)] = eng._heap
    assert handler == eng._frame_at_bridge and args[:2] == (2, 1)
    return arrive


class TestLatency:
    def test_idle_link_arithmetic(self):
        # 1500-byte frame, idle queue: 12 us transmission + 1 us propagation
        assert _arrival_of_one_hop(1500 * 8) == pytest.approx(13e-6)

    def test_busy_queue_adds_wait(self):
        assert _arrival_of_one_hop(1500 * 8, 50e-6) == pytest.approx(63e-6)

    def test_zero_size_is_pure_propagation(self):
        assert _arrival_of_one_hop(0) == pytest.approx(1e-6)

    def test_busy_until_nondecreasing(self):
        # two frames sent back to back on one hop: the second waits for the
        # first, and the opposite direction stays idle
        eng = _one_link_engine()
        eng._send(1, 2, _probe(12000), 0.0)
        eng._send(1, 2, _probe(12000), 0.0)
        first, second = sorted(arrive for arrive, *_ in eng._heap)
        assert first == pytest.approx(13e-6)
        assert second - first == pytest.approx(12e-6)
        assert eng.hops[(2, 1)].busy_until == 0.0

    def test_host_hops_deliver_by_far_end(self):
        # a 100 Mbps, 5 us host link: host -> bridge ends at the bridge's
        # port, bridge -> host at the host, with the same arithmetic
        topo = Topology([1, 2], [Link(1, 2), Link("A", 1, bandwidth_bps=1e8, prop_delay_s=5e-6)],
                        {"A": 1, "B": 2})
        eng = Engine(topo, "arp_path")
        frame = _probe(12000)
        eng._send("A", 1, frame, 0.0)
        eng._send(1, "A", frame, 1e-3)
        up_at, _tie, _seq, up, up_args = heapq.heappop(eng._heap)
        down_at, _tie, _seq, down, down_args = heapq.heappop(eng._heap)
        assert up == eng._frame_at_bridge and up_args == (1, "A", frame)
        assert up_at == pytest.approx(125e-6)
        assert down == eng._frame_at_host and down_args == ("A", frame)
        assert down_at == pytest.approx(1e-3 + 125e-6)


class TestFaultDetectors:
    """The engine's checks on what correct bridges never do, each reached by
    injecting the fault it detects."""

    @pytest.mark.parametrize("wrong_port", [{1: 2, 2: 1}, {1: "A"}],
                             ids=["loop", "to-another-host"])
    def test_a_walk_that_misses_its_host_ends_the_flow_miss(self, monkeypatch, wrong_port):
        route = ArpPathBridge.route

        def faulty(bs, ingress, frame):
            if frame.kind == DATA and bs.bridge_id in wrong_port:
                return ForwardingDecision([(wrong_port[bs.bridge_id], frame)]), None
            return route(bs, ingress, frame)

        monkeypatch.setattr(ArpPathBridge, "route", faulty)
        rep = run_scenario(make_diamond(), "arp_path", [FlowSpec("A", "B", 12000, 0.0)], seed=1)
        assert rep.flows[0]["status"] == "miss"
        assert rep.counters["flows_unresolved"] == 1

    def test_forwarding_out_the_ingress_port_is_an_error(self, monkeypatch):
        monkeypatch.setattr(ArpPathBridge, "handle",
                            lambda bs, ingress, frame, now: ForwardingDecision([(ingress, frame)]))
        with pytest.raises(AssertionError, match="^forwarding back out the ingress port$"):
            run_scenario(make_line(2), "arp_path", [FlowSpec("A", "B", 12000, 0.0)])

    def test_a_host_absorbs_a_reply_or_probe_for_another_host(self):
        eng = Engine(make_line(2, hosts={"A": 1, "B": 2, "C": 2}), "arp_path")
        for kind in (ARP_REPLY, DATA):
            eng._frame_at_host(0.0, "C", Frame(kind=kind, src_mac="A", dst_mac="B"))
        assert (eng.absorbed, eng.delivered, eng.frames_consumed) == (2, 0, 2)


class TestScenarios:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ScenarioError):
            Engine(make_line(2), "spanning_tree")

    def test_rejects_unknown_host(self):
        eng = Engine(make_line(2), "arp_path")
        with pytest.raises(ScenarioError):
            eng.add_flow(FlowSpec("A", "nobody", 1000, 0.0))

    def test_rejects_self_flow(self):
        # its ARP request would never resolve, and its flood would lock the
        # bridges to the host's MAC, so that A -> B at t = 0 stayed pending too
        with pytest.raises(ScenarioError, match="to itself"):
            FlowSpec("A", "A", 12000, 0.0)
        rep = run_scenario(make_line(3), "arp_path", [FlowSpec("A", "B", 12000, 0.0)],
                           seed=1, duration=1.0)
        assert rep.flows[0]["status"] == "done"

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

    def test_loop_freedom_in_all_traces(self, bridge_arrivals):
        t = make_simple_grid(3, hosts_per_corner=2)
        rep = run_scenario(t, "arp_path",
                           [FlowSpec("h1_0", "h9_0", 12000, 0.0)], seed=7, duration=1.0)
        assert rep.counters["dropped_duplicate"] >= 1 and len(bridge_arrivals) > 1
        for trace in bridge_arrivals:
            assert len(set(trace)) == len(trace), trace
        for race in rep.races:
            for tr in (race["winning_trace"], race["reply_trace"]):
                assert tr is not None and len(set(tr)) == len(tr)

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_crossing_races_forward_no_frame_twice(self, protocol, bridge_arrivals):
        # A and B ARP for each other at t = 0 over a triangle whose direct
        # link is slow.  B's reply turns entries that A's flood has just
        # locked learnt before the flood's slower copies arrive; the entries
        # keep the race stamp, so those copies stay duplicates.  Without the
        # stamp ARP-Path re-admits them, re-points A's entries into a cycle,
        # and B's frames go round it for ever.
        t = Topology([1, 2, 3], [Link(1, 2, 1e8), Link(2, 3), Link(3, 1, 1e9, 1e-5)],
                     {"A": 1, "B": 2})
        eng = Engine(t, protocol, seed=0)
        eng.add_flow(FlowSpec("A", "B", 12000, 0.0))
        eng.add_flow(FlowSpec("B", "A", 12000, 0.0))
        rep = eng.run(until=0.05)  # bounded, so that a storm fails instead of hanging
        assert [f["status"] for f in rep.flows] == ["done", "done"]
        assert rep.counters["in_flight"] == 0
        assert bridge_arrivals
        for arrival in bridge_arrivals:
            forwarders = arrival[:-1]  # no bridge forwarded the frame twice
            assert len(set(forwarders)) == len(forwarders), arrival

    def test_congested_branch_avoided(self):
        # preload the 1->2 output port: the request copy over 1->4 wins
        eng = Engine(make_diamond(), "arp_path", seed=0)
        eng.hops[(1, 2)].busy_until = 1e-3
        eng.add_flow(FlowSpec("A", "B", 12000, 0.0))
        rep = eng.run(until=1.0)
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

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_flow_path_is_the_path_its_probe_took(self, protocol):
        # same-edge pairs included: 3 hosts on each corner of a 3x3 grid
        t = make_simple_grid(3, hosts_per_corner=3)
        hosts = sorted(t.hosts)
        rng = random.Random(11)
        wl = [FlowSpec(*rng.sample(hosts, 2), 12000 if k % 2 else 4e7, 0.05 * k)
              for k in range(120)]
        rep = run_scenario(t, protocol, wl, seed=3)
        delivered = [f for f in rep.flows if f["probe_trace"] is not None]
        same_edge = [f for f in delivered if t.hosts[f["src"]] == t.hosts[f["dst"]]]
        assert len(delivered) > 100 and same_edge
        for f in delivered:
            assert f["path"] == f["probe_trace"], f

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_walk_path_skips_expired_entries(self, protocol):
        # B keeps A's MAC from A's request at 0, but every table entry has
        # expired by 40 s: the walk misses, B asks again, and its probe
        # takes the path the flow reports
        wl = [FlowSpec("A", "B", 12000, 0.0), FlowSpec("B", "A", 12000, 40.0)]
        rep = run_scenario(make_line(2), protocol, wl, seed=1)
        second = rep.flows[1]
        assert second["status"] == "done"
        assert second["path"] == second["probe_trace"] == [2, 1]
        assert len(rep.races) == 2
        assert [rep.counters["dropped_" + reason] for reason in (DUPLICATE, MISS, UNRESOLVED)] \
            == [0, 0, 0]

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_a_flood_after_the_lock_timer_is_admitted(self, protocol):
        # A floods again, for C, once its first flood's locks have ended: the
        # entries are learnt, so the fresher race re-points them
        t = make_line(3, hosts={"A": 1, "B": 3, "C": 2})
        wl = [FlowSpec("A", "B", 12000, 0.0), FlowSpec("A", "C", 12000, 2 * LOCK_TIMER)]
        rep = run_scenario(t, protocol, wl, seed=1)
        assert [f["status"] for f in rep.flows] == ["done", "done"]
        assert [r["winning_trace"] is not None for r in rep.races] == [True, True]
        assert rep.counters["dropped_duplicate"] == 0

    def test_an_edge_directory_names_remote_hosts_only(self):
        # route delivers to a host port before it reads the directory, so a
        # record of a local host would never be read
        t = make_simple_grid(3, hosts_per_corner=2)
        wl = [FlowSpec(a, b, 12000, 0.3 * k)
              for k, (a, b) in enumerate(itertools.permutations(sorted(t.hosts), 2))]
        rep = run_scenario(t, "bridge_path", wl, seed=2)
        for edge in t.edge_bridges():
            directory = rep.bridges[edge].directory
            assert directory and not set(directory) & set(t.hosts_at(edge))
            assert {mac: rec.port for mac, rec in directory.items()} == \
                {h: t.hosts[h] for h in directory}

    def test_an_edge_directory_record_expires_at_a_frame(self):
        # no forwarding timer is due at the frame, only the directory record
        eng = Engine(make_line(3), "bridge_path")
        edge = eng.bridges[1]
        edge._dir_learn("B", 3, now=0.0)
        edge._learn(3, 2, now=LEARNT_TIMER / 2)
        eng._frame_at_bridge(LEARNT_TIMER + 1.0, 1, "A", Frame(kind=DATA, src_mac="A",
                                                                 dst_mac="B"))
        assert "B" not in edge.directory and list(edge.entries) == [3]
        assert eng.dropped_unresolved == 1 and eng.frames_created == 0

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_walk_path_none_on_empty_tables(self, protocol):
        eng = Engine(make_line(3), protocol)
        assert eng.walk_path("A", "B") is None
        assert eng.walk_path("B", "A") is None

    def test_utilization_bounded(self):
        t = make_simple_grid(2, hosts_per_corner=2)
        wl = [FlowSpec("h1_0", "h4_0", 5e7, 0.0), FlowSpec("h1_1", "h4_1", 5e7, 0.0)]
        rep = run_scenario(t, "arp_path", wl, seed=3, duration=2.0)
        assert rep.link_utilization
        last = {}
        for _t, link, u in rep.link_utilization:
            assert 0.0 <= u <= 1.0 + 1e-12
            last[link] = u
        # both flows are done long before 2 s, so every link they crossed
        # ends on an explicit 0 row
        assert rep.flows[0]["status"] == rep.flows[1]["status"] == "done"
        assert len(last) > 4 and set(last.values()) == {0.0}
        # the rows are written once, to report.csv
        assert "link_utilization" not in json.loads(rep.to_json())
        lines = rep.utilization_csv().splitlines()
        assert lines[0] == "time,link,utilization"
        assert lines[1:] == ["%.12g,%s,%.12g" % row for row in rep.link_utilization]


def reference_max_min_rates(flows, bandwidth):
    """Progressive filling over flow sets, as the engine computed it before
    keeping live counts: rescan every link and intersect its flow set with
    the unfrozen flows in every round.  Flow i crosses links flows[i]."""
    residual = {}
    members = {}
    for i, links in enumerate(flows):
        for ln in links:
            residual.setdefault(ln, bandwidth[ln])
            members.setdefault(ln, set()).add(i)
    rates = {}
    unfrozen = set(range(len(flows)))
    while unfrozen:
        best, best_share = None, None
        for ln, on_link in members.items():
            live = on_link & unfrozen
            if not live:
                continue
            share = residual[ln] / len(live)
            if best_share is None or share < best_share:
                best, best_share = ln, share
        if best is None:
            break
        for i in members[best] & unfrozen:
            rates[i] = best_share
            unfrozen.discard(i)
            for ln in flows[i]:
                residual[ln] -= best_share
        residual[best] = 0.0
    return [rates[i] for i in range(len(flows))]


def _bits(rates):
    return [r.hex() for r in rates]


def _fill_bits(result):
    rates, utilization = result
    return _bits(rates), [(k, u.hex()) for k, u in utilization]


def _fill_by_step(step, flows, bandwidth):
    """The fill of step, step_py or the compiled one, as (rates,
    utilization): one step from an idle plane, in which no time passes and
    no flow has finished, so the step only fills.  Each link is named by its
    index, so its rows are the utilization, (k, load / bandwidth[k]) for
    each crossed link k in ascending k."""
    flows, rows = list(flows), []
    n, n_links = len(flows), len(bandwidth)
    rates = [0.0] * n
    step(flows, [math.inf] * n, rates, [None] * n_links, bandwidth, range(n_links),
         0.0, 0.0, rows)
    return rates, [(k, u) for _, k, u in rows]


@st.composite
def fluid_flows(draw):
    """(flows, bandwidth) for a fill.  Mostly equal bandwidths and links 0
    and 1 drawn often, so that shared links and exact share ties are
    common; some bandwidths are ints, as a JSON topology can carry."""
    bandwidth = tuple(draw(st.lists(st.sampled_from([1e9] * 4 + [10**9, 2.5e8, 4e9 / 3, 3]),
                                    min_size=1, max_size=12)))
    hot = list(range(len(bandwidth))) + [0, 0, 0] + [1, 1] * (len(bandwidth) > 1)
    flows = draw(st.lists(st.lists(st.sampled_from(hot), min_size=1, unique=True).map(tuple),
                          max_size=20))
    return flows, bandwidth


@st.composite
def fluid_steps(draw):
    """(flows, remaining, rates, busy, bandwidth, prev, moves) for a run of
    steps on fluid_flows' flows and links from time prev.  Each move sets
    the next step's now: "due" is the earliest prev + remaining / rate over
    the flows with rate > 0, at which those flows are due exactly, and "ulp"
    is one ulp before it, so that they are due one ulp after now; a float
    is now - prev.  The draws favour the step's edges: now = prev, every
    flow done, and busy links, some last written as 0.0, that no flow
    crosses."""
    flows, bandwidth = draw(fluid_flows())
    rates = [draw(st.sampled_from([0.0, 1.0, 2.5e8, 1e9]) | st.floats(0, 4e9)) for _ in flows]
    remaining = [draw(st.sampled_from([0.0, 1e3, 4e8]) | st.floats(0, 1e9)) for _ in flows]
    if draw(st.booleans()):
        remaining = [0.0] * len(flows)
    busy = [draw(st.sampled_from([None, None, 0.0, 0.5, 1.0]) | st.floats(0, 1))
            for _ in bandwidth]
    prev = draw(st.floats(0, 100))
    moves = draw(st.lists(st.sampled_from(["due", "ulp", "due", 0.0, 1e-6, 0.25])
                          | st.floats(0, 10), min_size=1, max_size=3))
    return flows, remaining, rates, busy, bandwidth, prev, moves


def _step_run(step, case):
    """Run step over case's moves from its prev; each step's returns and state, as bits."""
    flows, remaining, rates, busy, bandwidth, prev, moves = case
    flows, remaining, rates, busy = list(flows), list(remaining), list(rates), list(busy)
    names = tuple("L%d" % k for k in range(len(bandwidth)))
    out = []
    for move in moves:
        due = min((prev + left / rate for left, rate in zip(remaining, rates) if rate > 0),
                  default=prev)
        if isinstance(move, float):
            now = prev + move
        else:
            now = due if move == "due" else max(prev, math.nextafter(due, -math.inf))
        rows = []
        retired, eta = step(flows, remaining, rates, busy, bandwidth, names, prev, now, rows)
        out.append((retired, None if eta is None else eta.hex(), list(flows),
                    _bits(remaining), _bits(rates),
                    [(t.hex(), name, u.hex()) for t, name, u in rows],
                    [None if u is None else u.hex() for u in busy]))
        prev = now
    return out


def _loads(flows, rates):
    """Link -> the rates of its flows, in flow order."""
    load = {}
    for links, rate in zip(flows, rates):
        for ln in links:
            load.setdefault(ln, []).append(rate)
    return load


class TestMaxMin:
    @settings(max_examples=300, deadline=None)
    @given(case=fluid_flows())
    def test_matches_set_based_filling_bitwise(self, case):
        flows, bandwidth = case
        rates, utilization = _fill_by_step(step_py, flows, bandwidth)
        assert _bits(rates) == _bits(reference_max_min_rates(flows, bandwidth))
        load = _loads(flows, rates)
        # utilization: every crossed link once, in ascending index, its
        # load summed left to right in flow order
        want = []
        for ln in sorted(load):
            total = 0.0
            for rate in load[ln]:
                total += rate
            want.append((ln, total / bandwidth[ln]))
        assert _fill_bits((rates, utilization)) == _fill_bits((rates, want))

    @pytest.mark.parametrize("kernel", ["python", "c"])
    @settings(max_examples=300, deadline=None)
    @given(case=fluid_flows())
    def test_fill_is_max_min(self, kernel, compiled_kernel, case):
        # the certificate: no link is over its bandwidth, and every flow
        # crosses a saturated link on which no flow is faster; the shares of
        # two tied rounds may come out an ulp apart
        step = step_py if kernel == "python" else compiled_kernel("_fluid_core").step
        flows, bandwidth = case
        rates, _ = _fill_by_step(step, flows, bandwidth)
        load = _loads(flows, rates)
        for ln, on_link in load.items():
            assert sum(on_link) <= bandwidth[ln] * (1 + 1e-12)
        for i, links in enumerate(flows):
            assert any(bandwidth[ln] - sum(load[ln]) <= 1e-12 * bandwidth[ln]
                       and max(load[ln]) <= rates[i] * (1 + 1e-12) for ln in links), i

    def test_engine_rates_match_set_based_filling(self, monkeypatch):
        # after each step, flows holds the flows that step filled, and rates
        # their rates
        calls = []
        kernel = simnet.step

        def checked(flows, remaining, rates, *args):
            result = kernel(flows, remaining, rates, *args)
            assert _bits(rates) == _bits(reference_max_min_rates(flows, args[1]))
            calls.append(len(flows))
            return result

        monkeypatch.setattr(simnet, "step", checked)
        t = make_simple_grid(3, hosts_per_corner=2)
        hosts = sorted(t.hosts)
        wl = [FlowSpec(a, b, 4e7, 0.001 * k) for k, (a, b) in
              enumerate((a, b) for a in hosts for b in hosts if a != b)]
        rep = run_scenario(t, "flow_path", wl, seed=5)
        assert max(calls) > 10
        assert all(f["status"] == "done" for f in rep.flows)

    def test_link_records_are_built_once(self):
        # every link, host links included, has one hop per direction, and
        # the two hops share one fluid-plane index; the indices rank the
        # links by name, in report.csv's row order
        t = make_simple_grid(3, hosts_per_corner=2)
        eng = Engine(t, "flow_path", seed=2)
        assert len(eng.hops) == 2 * len(t.links)
        for ln in t.links.values():
            there, back = eng.hops[(ln.a, ln.b)], eng.hops[(ln.b, ln.a)]
            assert there is not back and there.link == back.link
            assert (there.to_host, back.to_host) == (ln.b in t.hosts, ln.a in t.hosts)
            assert eng._link_names[there.link] == "-".join(sorted(map(str, (ln.a, ln.b))))
            assert eng._bandwidth[there.link] == ln.bandwidth_bps
        indices = [hop.link for hop in eng.hops.values()]
        assert sorted(indices) == sorted(list(range(len(t.links))) * 2)
        assert list(eng._link_names) == sorted(eng._link_names)
        eng.add_flow(FlowSpec("h1_0", "h9_0", 4e7, 0.0))
        eng.add_flow(FlowSpec("h1_1", "h9_1", 4e7, 0.0))
        eng.run()
        a, b = (eng._flow_links(rec) for rec in eng.report.flows)
        assert [eng._link_names[k] for k in a[:2]] == ["1-h1_0", "9-h9_0"]
        assert [eng._link_names[k] for k in b[:2]] == ["1-h1_1", "9-h9_1"]

    def test_integer_bandwidths_give_the_same_rows(self):
        # a JSON topology can carry integer bandwidths: the fluid plane's
        # arithmetic on them is that on the equal floats
        doc = make_simple_grid(3, hosts_per_corner=2).to_json_dict()
        for k, entry in enumerate(doc["links"] + doc["hosts"]):
            entry["bandwidth_bps"] = (3 * 10**8, 10**9, 10**8)[k % 3]
        as_int = Topology.from_json_dict(doc)
        assert all(type(ln.bandwidth_bps) is int for ln in as_int.links.values())
        for entry in doc["links"] + doc["hosts"]:
            entry["bandwidth_bps"] = float(entry["bandwidth_bps"])
        as_float = Topology.from_json_dict(doc)
        hosts = sorted(as_int.hosts)
        wl = [FlowSpec(a, b, 4e7, 0.002 * k) for k, (a, b) in
              enumerate((a, b) for a in hosts for b in hosts if a != b)]
        reports = [run_scenario(t, "arp_path", wl, seed=4) for t in (as_int, as_float)]
        assert len(reports[0].link_utilization) > 100
        assert reports[0].link_utilization == reports[1].link_utilization
        assert reports[0].to_json() == reports[1].to_json()


@pytest.fixture(params=["python", "c"])
def twin(request, compiled_kernel):
    """Each fill: that of step_py, and that of the compiled step."""
    step = step_py if request.param == "python" else compiled_kernel("_fluid_core").step
    return functools.partial(_fill_by_step, step)


@pytest.fixture(params=["python", "c"])
def step_twin(request, compiled_kernel):
    """Each step kernel: the pure-python twin and the compiled one."""
    return step_py if request.param == "python" else compiled_kernel("_fluid_core").step


class TestFluidKernels:
    """The fill that the compiled step runs and that of its twin, step_py."""

    def test_kernel_is_exported(self):
        assert simnet.KERNEL in ("c", "python")
        assert (simnet.step is step_py) == (simnet.KERNEL == "python")

    @settings(max_examples=500, deadline=None)
    @given(case=fluid_flows())
    def test_twins_match_bitwise(self, compiled_kernel, case):
        flows, bandwidth = case
        step = compiled_kernel("_fluid_core").step
        assert (_fill_bits(_fill_by_step(step, flows, bandwidth))
                == _fill_bits(_fill_by_step(step_py, flows, bandwidth)))

    def test_integer_bandwidths_fill_like_floats(self, compiled_kernel):
        # four equal links, so every share ties in every round and the first
        # link in order of first appearance is the bottleneck each time;
        # ints, as a JSON topology can carry, give the bits of equal floats
        step = compiled_kernel("_fluid_core").step
        flows = [(3, 1), (1, 2), (2, 0), (0, 3), (1,), (3, 2, 0)]
        for bandwidth in ((1e9,) * 4, (10**9,) * 4, (1e9, 10**9, 1e9, 10**9)):
            a, b = _fill_by_step(step, flows, bandwidth), _fill_by_step(step_py, flows, bandwidth)
            assert _fill_bits(a) == _fill_bits(b)
            assert _fill_bits(a) == _fill_bits(_fill_by_step(step_py, flows, (1e9,) * 4))

    def test_empty(self, twin):
        assert twin([], (1e9,)) == ([], [])
        assert twin([], ()) == ([], [])

    def test_only_crossed_links_are_listed(self, twin):
        rates, utilization = twin([(4, 1), (1,)], (1e9, 2e9, 3e9, 4e9, 1e8))
        assert rates == [1e8, 2e9 - 1e8]
        assert utilization == [(1, 1.0), (4, 1.0)]

    @pytest.mark.parametrize("flows, bandwidth, error", [
        ([(0, 3)], (1e9, 1e9, 1e9), IndexError),
        ([(0, -1)], (1e9, 1e9, 1e9), IndexError),
        ([(2**70,)], (1e9,), IndexError),
        ([[0, 1]], (1e9, 1e9), TypeError),
        ([(0, 1.0)], (1e9, 1e9), TypeError),
        ([(0, "1")], (1e9, 1e9), TypeError),
        ([(0,), None], (1e9,), TypeError),
        (5, (1e9,), TypeError),
        ([(0,)], 1e9, TypeError),
        ([(0,)], ("1e9",), TypeError),
        ([(0,), ()], (1e9,), ValueError),
        ([(0,)], (0.0,), ValueError),
        ([(0,)], (-1e9,), ValueError),
        ([(0,)], (math.nan,), ValueError),
    ], ids=["past-the-end", "negative", "huge", "list-flow", "float-index", "str-index",
            "none-flow", "flows-not-a-sequence", "bandwidth-not-a-sequence", "str-bandwidth",
            "empty-flow", "zero-bandwidth", "negative-bandwidth", "nan-bandwidth"])
    def test_bad_input_raises(self, twin, flows, bandwidth, error):
        with pytest.raises(error):
            twin(flows, bandwidth)


@pytest.mark.parametrize("name, kernel", [("_balance_core", "run_replication"),
                                          ("_fluid_core", "step")])
def test_each_compiled_module_exports_its_one_kernel(compiled_kernel, name, kernel):
    # one compiled function per module, each with one pure-python twin
    module = compiled_kernel(name)
    assert [attr for attr in dir(module) if not attr.startswith("_")] == [kernel]


class TestFluidStep:
    """The compiled step and its pure-python twin, step_py."""

    @settings(max_examples=300, deadline=None)
    @given(case=fluid_steps())
    def test_twins_match_bitwise(self, compiled_kernel, case):
        core = compiled_kernel("_fluid_core")
        assert _step_run(core.step, case) == _step_run(step_py, case)

    def test_retires_at_the_threshold(self, step_twin):
        # the threshold is now itself: a flow retires when prev + remaining /
        # rate, the completion time the step at prev computed for it, is at
        # most now.  Flow 0 is due exactly at now, flow 1 one ulp later and
        # flow 2 at prev.
        prev, now = 2.0, 2.5
        due, later = 5e8, 500000000.0000003
        assert prev + due / 1e9 == now
        assert prev + later / 1e9 == math.nextafter(now, math.inf)
        flows = [(0,), (0, 2), (1,)]
        remaining, rates = [due, later, 0.0], [1e9, 1e9, 1e9]
        # link 1 was last written as 0.0 while busy: busy, not idle
        busy, rows = [0.5, 0.0, None], []
        retired, eta = step_twin(flows, remaining, rates, busy, (1e9, 1e9, 4e9),
                                 ("a", "b", "c"), prev, now, rows)
        assert retired == [0, 2]
        left = later - 1e9 * (now - prev)
        assert (flows, remaining, rates) == ([(0, 2)], [left], [1e9])
        assert rows == [(now, "a", 1.0), (now, "b", 0.0), (now, "c", 0.25)]
        assert busy == [1.0, None, 0.25]
        assert eta == now + left / 1e9
        # no time passes: no row, and the same completion
        assert step_twin(flows, remaining, rates, busy, (1e9, 1e9, 4e9), ("a", "b", "c"),
                         now, now, rows) == ([], eta)
        assert len(rows) == 3
        # and the flow retires at exactly that completion
        assert step_twin(flows, remaining, rates, busy, (1e9, 1e9, 4e9), ("a", "b", "c"),
                         now, eta, rows) == ([0], None)
        assert rows[3:] == [(eta, "a", 0.0), (eta, "c", 0.0)]

    def test_advances_then_retires_every_flow(self, step_twin):
        # due at 2.8 and at 3: both retire at 3
        flows, remaining, rates = [(0,), (0,)], [4e8, 5e8], [5e8, 5e8]
        busy, rows = [1.0, None], []
        assert step_twin(flows, remaining, rates, busy, (1e9, 1e9), ("a", "b"), 2.0, 3,
                         rows) == ([0, 1], None)
        assert flows == remaining == rates == []
        assert rows == [(3, "a", 0.0)] and busy == [None, None]

    @pytest.mark.parametrize("args, error", [
        (([(0,)], [1.0, 2.0], [0.0], [None], (1e9,), ("a",)), ValueError),
        (([(0,)], [1.0], [0.0], [None], (1e9, 1e9), ("a", "b")), ValueError),
        (([(0,)], [1.0], [0.0], [None, None], (1e9, 1e9), ("a",)), ValueError),
        (([[0]], [1.0], [0.0], [None], (1e9,), ("a",)), TypeError),
        (([(1,)], [1.0], [0.0], [None], (1e9,), ("a",)), IndexError),
    ], ids=["remaining", "busy", "names", "list-flow", "past-the-end"])
    def test_bad_input_raises(self, step_twin, args, error):
        with pytest.raises(error):
            step_twin(*args, 0.0, 0.0, [])


def _pinned_scenario():
    """The 4x4 scenario whose outputs test_cli pins: two hosts per corner,
    20 flows, every other one 400 Mbit, seed 11, cut at 4 s."""
    topo = make_simple_grid(4, hosts_per_corner=2)
    pairs = list(itertools.permutations(sorted(topo.hosts), 2))
    random.Random(2017).shuffle(pairs)
    flows = [FlowSpec(a, b, 4e8 if k % 2 else 12000, 0.1 * k)
             for k, (a, b) in enumerate(pairs[:20])]
    return topo, flows, 11, 4.0


def _overlapping_bulk():
    """Every ordered host pair of a 3x3 grid sends 40 Mbit, 1 ms apart, to the end."""
    topo = make_simple_grid(3, hosts_per_corner=2)
    flows = [FlowSpec(a, b, 4e7, 0.001 * k)
             for k, (a, b) in enumerate(itertools.permutations(sorted(topo.hosts), 2))]
    return topo, flows, 5, None


class TestUtilizationChangePoints:
    """report.csv holds change points: reading each link's last row at or
    before t (0 before its first) gives the utilization of the last fill at
    t, rebuilt here by step_py's fill of the flows that each step kept."""

    @pytest.mark.parametrize("scenario", [_pinned_scenario, _overlapping_bulk],
                             ids=["pinned-4x4", "overlapping-bulk"])
    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_rows_rebuild_every_fill(self, protocol, scenario, step_twin, monkeypatch):
        recomputes = []  # (now, start of its rows, the survivors' utilization)
        fluid_recompute = Engine._fluid_recompute

        def recorded(eng, now):
            start = len(eng.report.link_utilization)
            fluid_recompute(eng, now)
            _rates, utilization = _fill_by_step(step_py, eng._active_links, eng._bandwidth)
            recomputes.append((now, start, utilization))

        monkeypatch.setattr(simnet, "step", step_twin)
        monkeypatch.setattr(Engine, "_fluid_recompute", recorded)
        topo, flows, seed, duration = scenario()
        eng = Engine(topo, protocol, seed=seed)
        for spec in flows:
            eng.add_flow(spec)
        rows = eng.run(until=duration).link_utilization
        names = eng._link_names
        rank = {name: k for k, name in enumerate(names)}
        assert len(recomputes) > 20 and any(not u for _now, _start, u in recomputes)

        # the recomputes' rows tile the report in time order, so applying
        # them recompute by recompute is reading the rows up to each instant
        assert recomputes[0][1] == 0
        read = {}
        for i, (now, start, utilization) in enumerate(recomputes):
            later = recomputes[i + 1] if i + 1 < len(recomputes) else (None, len(rows))
            mine = rows[start:later[1]]
            # at its instant, in ascending link index, each row a change
            assert [t for t, _name, _u in mine] == [now] * len(mine)
            order = [rank[name] for _t, name, _u in mine]
            assert order == sorted(set(order))
            for _t, name, u in mine:
                assert read.get(name, 0.0) != u
                read[name] = u
            if later[0] == now:
                continue  # a later recompute at this instant wins
            want = dict.fromkeys(names, 0.0)
            want.update((names[k], u) for k, u in utilization)
            assert {name: read.get(name, 0.0).hex() for name in names} == \
                {name: u.hex() for name, u in want.items()}

    def test_rows_of_one_instant_come_in_name_order(self):
        # host "1-2" names its link "1-2-3", which sorts before "1-9" although
        # its end "1-2" sorts after the end "1" of link 1-9
        topo = Topology([1, 3, 9], [Link(1, 9), Link(9, 3)], {"1-2": 3, "A": 1})
        rows = run_scenario(topo, "flow_path", [FlowSpec("A", "1-2", 8e8, 0.0)]).link_utilization
        first = [name for t, name, _u in rows if t == rows[0][0]]
        assert first == ["1-2-3", "1-9", "1-A", "3-9"]


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

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_change_points_of_a_recount_at_frames_walks_and_the_end(self, protocol,
                                                                     monkeypatch):
        # the walk at 40 s and the end at 80 s each find expired entries
        recount = []
        for name in ("_frame_at_bridge", "walk_path", "_finalize"):
            def recounted(eng, *args, _original=getattr(Engine, name)):
                result = _original(eng, *args)
                recount.append((eng.now, sum(len(bs.entries) for bs in eng.bridges.values())))
                return result
            monkeypatch.setattr(Engine, name, recounted)
        wl = [FlowSpec("A", "B", 12000, 0.0), FlowSpec("B", "A", 12000, 40.0)]
        rep = run_scenario(make_line(2), protocol, wl, seed=1, duration=80.0)
        change_points = [row for i, row in enumerate(recount)
                         if i == 0 or row[1] != recount[i - 1][1]]
        assert rep.table_series == change_points
        assert [t for t, _ in rep.table_series].count(40.0) == 1  # the walk's row

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_the_final_tick_is_booked(self, protocol):
        rep = run_scenario(make_line(2), protocol, [FlowSpec("A", "B", 12000, 0.0)],
                           duration=40.0)
        assert rep.final_tables["total"] == 0
        assert rep.table_series[-1] == (40.0, 0)


class TestCounters:
    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    @pytest.mark.parametrize("duration", [None, 0.3 + 4e-6], ids=["to-the-end", "cut-mid-flood"])
    def test_frame_counters_match_a_recount(self, protocol, duration, monkeypatch):
        calls = {"_send": 0, "_frame_at_bridge": 0, "_frame_at_host": 0}
        drops = []
        for name in calls:
            def counted(eng, *args, _name=name, _original=getattr(Engine, name)):
                calls[_name] += 1
                return _original(eng, *args)
            monkeypatch.setattr(Engine, name, counted)
        for cls in BRIDGE_CLASSES.values():
            def recorded(bs, *args, _original=cls.handle):
                decision = _original(bs, *args)
                drops.append(decision.drop)
                return decision
            monkeypatch.setattr(cls, "handle", recorded)

        eng = Engine(make_simple_grid(3, hosts_per_corner=2), protocol, seed=7)
        for spec in [FlowSpec("h1_0", "h9_1", 12000, 0.0), FlowSpec("h3_0", "h7_1", 12000, 0.0),
                     FlowSpec("h9_0", "h1_1", 12000, 0.3), FlowSpec("h1_0", "h9_1", 12000, 0.6)]:
            eng.add_flow(spec)
        # stray data frames to a silent host: into an edge bridge from its
        # host (Bridge-Path: unresolved) and from a neighbour bridge (a miss)
        stray = Frame(kind=DATA, src_mac="h1_0", dst_mac="h7_0")
        eng.schedule(0.2, lambda now: (eng._send("h1_0", 1, stray, now),
                                       eng._send(2, 1, stray, now)))
        c = eng.run(until=duration).counters
        consumed = calls["_frame_at_bridge"] + calls["_frame_at_host"]
        assert (c["frames_created"], c["frames_consumed"]) == (calls["_send"], consumed)
        assert c["in_flight"] == calls["_send"] - consumed
        assert (c["in_flight"] > 0) == (duration is not None)
        assert len(drops) == calls["_frame_at_bridge"]
        for reason in (DUPLICATE, MISS, UNRESOLVED):
            assert c["dropped_" + reason] == drops.count(reason), reason
        assert c["dropped_duplicate"] > 0 and c["dropped_miss"] > 0
        assert (c["dropped_unresolved"] > 0) == (protocol == "bridge_path")


class TestCensus:
    def test_line_counts_all_protocols(self):
        # one established pair on a 3-bridge line: 6 entries, b=3, L_e=0
        t = make_line(3)
        for protocol in ("arp_path", "flow_path", "bridge_path"):
            total, b, L_e, B_E, H = measure_empirical_tables(t, protocol, seed=1)
            assert (total, b, L_e, B_E, H) == (6, 3.0, 0.0, 2, 2)

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_grid_census_matches_equations(self, protocol, n, census):
        # crossed grids at seed 7: criterion 5 covers simple grids at seed 3
        from allpath.scalability import ScalabilityParams, eval_tables

        for hosts_per_corner in (1, 2):  # H = 4 and H = 8
            t = make_crossed_grid(n, hosts_per_corner=hosts_per_corner)
            (total, b, L_e, B_E, H), bounds = census(t, protocol, seed=7)
            p = ScalabilityParams(H=H, B_E=B_E, b=b, L_e=L_e)
            t_fp, t_ap, t_bp = eval_tables(p)
            pred = {"arp_path": t_ap, "flow_path": t_fp, "bridge_path": t_bp}[protocol]
            assert total == pytest.approx(pred, abs=1e-9), H
            if bounds is not None:
                assert bounds[0] <= total <= bounds[1], (H, bounds)

    def test_rejects_single_host(self):
        # fewer than two table keys: one host, or two behind one Bridge-Path edge
        for protocol, hosts in (("arp_path", {"A": 1}), ("bridge_path", {"A": 1, "B": 1})):
            with pytest.raises(ScenarioError):
                measure_empirical_tables(make_line(3, hosts=hosts), protocol)

    def test_rejects_a_workload_window_longer_than_the_learnt_timer(self, monkeypatch):
        # 12 hosts: 66 pairs 0.4 s apart outlast LEARNT_TIMER / 2 - 1
        monkeypatch.setattr(simnet, "run_scenario", lambda *a, **k: pytest.fail("census ran"))
        with pytest.raises(ScenarioError, match="^workload window too long"):
            measure_empirical_tables(make_simple_grid(3, hosts_per_corner=3), "arp_path")

    def test_an_undelivered_refresh_probe_is_an_error(self, monkeypatch):
        run = simnet.run_scenario

        def lose_the_last_probe(*args, **kwargs):
            report = run(*args, **kwargs)
            report.flows[-1]["probe_trace"] = None
            return report

        monkeypatch.setattr(simnet, "run_scenario", lose_the_last_probe)
        with pytest.raises(ScenarioError, match="^refresh probe B->A was not delivered$"):
            measure_empirical_tables(make_line(3), "arp_path")

    # exact 5-tuples on simple grids with two hosts per corner at seed 3
    PINNED = {
        ("arp_path", 2): (32, 2.142857142857143, 1.8571428571428572, 4, 8),
        ("arp_path", 3): (66, 3.2857142857142856, 4.964285714285714, 4, 8),
        ("arp_path", 4): (103, 4.428571428571429, 8.446428571428571, 4, 8),
        ("flow_path", 2): (120, 2.142857142857143, 0.0, 4, 8),
        ("flow_path", 3): (184, 3.2857142857142856, 0.0, 4, 8),
        ("flow_path", 4): (248, 4.428571428571429, 0.0, 4, 8),
        ("bridge_path", 2): (16, 2.3333333333333335, 1.6666666666666665, 4, 8),
        ("bridge_path", 3): (32, 3.6666666666666665, 4.333333333333334, 4, 8),
        ("bridge_path", 4): (46, 5.0, 6.5, 4, 8),
    }

    @pytest.mark.parametrize("protocol, n", list(PINNED))
    def test_census_tuples_are_pinned(self, protocol, n):
        t = make_simple_grid(n, hosts_per_corner=2)
        assert measure_empirical_tables(t, protocol, seed=3) == self.PINNED[(protocol, n)]


def _output_texts(report):
    """report.json, report.csv and tables.csv of report, as simulate writes them."""
    return (report.to_json(), report.utilization_csv(),
            tables_csv(report.bridges.values(), report.end_time))


def _timed_outputs(report, factor):
    """Every output of report, with each time multiplied by factor: the
    flows' start_time, data_start and data_end, the table_series and
    link_utilization rows, the end time and each table entry's lock deadline
    and expiry."""
    def scaled(t):
        return None if t is None else t * factor

    flows = [{**f, **{name: scaled(f[name]) for name in ("start_time", "data_start", "data_end")}}
             for f in report.flows]
    tables = {b: [{key: (e.port, scaled(e.locked_until), scaled(e.expires_at), e.race_id)
                   for key, e in table.items()}
                  for table in (bs.entries, getattr(bs, "directory", {}))]
              for b, bs in report.bridges.items()}
    return {"counters": report.counters, "races": report.races, "flows": flows,
            "final_tables": report.final_tables, "tables": tables,
            "end_time": scaled(report.end_time),
            "table_series": [(scaled(t), n) for t, n in report.table_series],
            "link_utilization": [(scaled(t), name, u) for t, name, u in report.link_utilization]}


class TestRandomTopologies:
    """Runs off the uniform grid: the random_scenario corpus, seeds 0-199."""

    SEEDS = range(200)

    # sha256 over the seeds' report.json, report.csv and tables.csv, in seed
    # order.  A change that alters simulation output on purpose re-pins these
    # and says so in CHANGES.md, as for test_cli's TestPinnedOutputs.
    CORPUS_DIGESTS = {
        "arp_path": "9f92ee55249aed8da3cef43e6d121fe7f6db67736b45e003ef24fca12bfc2429",
        "flow_path": "a89689eb63522e3aa7ede9641a5bbfd2d5af37a8af3915c2cdb9ac26fafa241e",
        "bridge_path": "736e23126f446ce8825d03d2d987219ece39220995cabb22abb4276aa1ad9164",
    }

    @pytest.mark.parametrize("kernel", ["step", "python", "c"])
    @pytest.mark.parametrize("protocol", sorted(CORPUS_DIGESTS))
    def test_corpus_outputs_are_pinned(self, protocol, kernel, random_scenario,
                                       compiled_kernel, monkeypatch):
        # simnet.step as imported, then each step twin in its place
        if kernel == "python":
            monkeypatch.setattr(simnet, "step", step_py)
        elif kernel == "c":
            monkeypatch.setattr(simnet, "step", compiled_kernel("_fluid_core").step)
        digest = hashlib.sha256()
        for seed in self.SEEDS:
            topo, flows = random_scenario(seed)
            for text in _output_texts(run_scenario(topo, protocol, flows, seed=seed)):
                digest.update(text.encode())
        assert digest.hexdigest() == self.CORPUS_DIGESTS[protocol]

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_no_bridge_forwards_a_frame_twice(self, protocol, random_scenario, bridge_arrivals):
        # a copy may come back to a bridge it crossed, where the lock drops it
        for seed in self.SEEDS:
            topo, flows = random_scenario(seed)
            run_scenario(topo, protocol, flows, seed=seed)
            for arrival in bridge_arrivals:
                forwarders = arrival[:-1]
                assert len(set(forwarders)) == len(forwarders), (seed, arrival)
            bridge_arrivals.clear()

    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_a_done_flow_took_its_probe_trace(self, protocol, random_scenario):
        done = 0
        for seed in self.SEEDS:
            topo, flows = random_scenario(seed)
            for f in run_scenario(topo, protocol, flows, seed=seed).flows:
                if f["status"] == "done":
                    done += 1
                    assert f["path"] == f["probe_trace"], (seed, f)
        assert done > 800

    @pytest.mark.parametrize("protocol", ["arp_path", "bridge_path"])
    def test_census_bounds_meet_on_trees(self, protocol, random_scenario, census):
        # one path per pair, so the traces to a key and those to or from it
        # cross the same bridges
        host_key = BRIDGE_CLASSES[protocol].host_key
        measured = 0
        for seed in range(300):
            topo, _ = random_scenario(seed, tree=True)
            if len({host_key(topo, h) for h in topo.hosts}) < 2:
                continue
            (total, *_), (low, high) = census(topo, protocol, seed=seed)
            assert low == total == high, seed
            measured += 1
        assert measured > 250

    @pytest.mark.parametrize("k", [3, -3])
    @pytest.mark.parametrize("protocol", simnet.PROTOCOLS)
    def test_time_scales_exactly(self, protocol, k, random_scenario, monkeypatch):
        # bandwidths times 2^k, delays, start times and timers over 2^k: the
        # same run with every time exactly 2^-k times its own, since a power
        # of two scales every float operation of the engine exactly
        monkeypatch.setattr(simnet, "step", step_py)

        def run(seed, k=0):
            topo, flows = random_scenario(seed, k)
            return run_scenario(topo, protocol, flows, seed=seed)

        base = [run(seed) for seed in self.SEEDS]
        monkeypatch.setattr("allpath.protocol.LOCK_TIMER", math.ldexp(LOCK_TIMER, -k))
        monkeypatch.setattr("allpath.protocol.LEARNT_TIMER", math.ldexp(LEARNT_TIMER, -k))
        factor = math.ldexp(1.0, -k)
        for seed, report in zip(self.SEEDS, base):
            assert _timed_outputs(run(seed, k), 1.0) == _timed_outputs(report, factor), seed


class TestProtocolGates:
    """PAPER.md's protocol comparison as checks that hold by design."""

    def test_table_keys_and_flow_path_symmetry(self):
        # 60 seeds over the diamond and grid:3 with 2 hosts per end or corner,
        # 12 flows a run started LOCK_TIMER / 5 apart, so that floods overlap
        topologies = [make_diamond(hosts={"A0": 1, "A1": 1, "B0": 3, "B1": 3}),
                      make_simple_grid(3, hosts_per_corner=2)]
        entries = reverse_pairs = 0
        for seed, t in itertools.product(range(60), topologies):
            hosts = sorted(t.hosts)
            rng = random.Random(seed)
            wl = [FlowSpec(*rng.sample(hosts, 2), 12000, k * LOCK_TIMER / 5) for k in range(12)]
            for protocol, cls in BRIDGE_CLASSES.items():
                rep = run_scenario(t, protocol, wl, seed=seed)
                if cls.host_key is not None:
                    # every key is a host's: at most H (ARP-Path) or B_E
                    # (Bridge-Path) entries a table
                    keys = {cls.host_key(t, h) for h in hosts}
                    for bs in rep.bridges.values():
                        assert set(bs.entries) <= keys, (protocol, seed, bs.bridge_id)
                        entries += len(bs.entries)
                    continue
                # Flow-Path: a done flow's path is the reverse of its reverse flow's
                paths = {}
                for f in rep.flows:
                    if f["status"] == "done":
                        paths.setdefault((f["src"], f["dst"]), set()).add(tuple(f["path"]))
                for (a, b), forward in paths.items():
                    if (b, a) in paths:
                        assert forward == {p[::-1] for p in paths[(b, a)]}, (seed, a, b)
                        reverse_pairs += 1
        assert entries > 1000 and reverse_pairs > 300


class TestBenchmarkTracer:
    def test_tracer_fits_the_package(self, monkeypatch, tmp_path):
        # the benchmark's tracer patches names of every layer from outside;
        # one renamed away, or a call that no longer goes through it, fails
        # here, not in a benchmark run
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import tracing

        from allpath import balance, cli, protocol, qbd, scalability, topology

        api = SimpleNamespace(balance=balance, cli=cli, protocol=protocol, qbd=qbd,
                              scalability=scalability, simnet=simnet, topology=topology)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": make_simple_grid(2).to_json_dict()}))
        tracer = tracing.Tracer()
        tracing.install(tracer, api)
        try:
            # the second flow starts at 0.3 s, after the first flood's locks have
            # ended; its walk and the end of each run tick every bridge
            for protocol in ("arp-path", "flow-path", "bridge-path"):
                assert cli.main(["simulate", "--topology", "diamond", "--protocol", protocol,
                                 "--flows", "2", "--seed", "1",
                                 "--out", str(tmp_path / protocol)]) == 0
            for argv in (["simulate", "--scenario", str(scenario), "--flows", "1"],
                         ["scalability", "--grid", "simple", "--n-range", "2..3", "--hosts", "4"],
                         ["scalability", "--grid", "crossed", "--n-range", "2..3",
                          "--hosts", "4"],
                         ["qbd", "--c1", "2", "--c2", "2", "--rho", "1", "--method", "dense"],
                         ["qbd", "--c1", "2", "--c2", "2", "--rho", "1"],
                         ["balance", "--paths", "2", "--capacity", "2", "--rho", "0.5",
                          "--replications", "1", "--duration", "1"],
                         ["replay", str(tmp_path / "qbd" / "manifest.json")]):
                assert cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
            simnet.measure_empirical_tables(make_simple_grid(2), "arp_path")
        finally:
            tracer.unpatch()
        patched = (tracing.CLI | tracing.TOPO_BUILD | tracing.TOPO_PATHS | tracing.PROTOCOL
                   | tracing.ENGINE_RUN | tracing.FLUID | tracing.TO_JSON | tracing.CENSUS
                   | tracing.SWEEP | tracing.QBD_BUILD | tracing.QBD_SOLVE_DENSE
                   | tracing.QBD_SOLVE_BLOCK | tracing.QBD_DENSE | tracing.QBD_GAP
                   | tracing.BAL_KERNEL | tracing.BAL_SIMULATE)
        assert patched - {span[0] for span in tracer.spans} == set()
        metrics = tracing.layer_metrics(tracer.spans)
        assert metrics["simnet.frames"] > 0
        assert metrics["protocol.handle_calls"] > 0 and metrics["protocol.tick_s"] > 0
