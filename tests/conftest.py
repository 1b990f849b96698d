"""Shared fixtures."""

import pytest

from allpath.simnet import Engine, measure_empirical_tables


@pytest.fixture
def bridge_arrivals(monkeypatch):
    """trace + [bridge] of every frame a bridge receives, whether the bridge
    then forwards or drops it; the loop-freedom oracle reads these."""
    arrivals = []
    at_bridge = Engine._frame_at_bridge

    def watched(eng, now, bridge_id, ingress, frame):
        arrivals.append(frame.trace + [bridge_id])
        at_bridge(eng, now, bridge_id, ingress, frame)

    monkeypatch.setattr(Engine, "_frame_at_bridge", watched)
    return arrivals


@pytest.fixture
def census(monkeypatch):
    """measure_empirical_tables(topology, protocol, seed), returning its
    5-tuple and the (low, high) bounds that the refresh-probe traces put on
    the total.

    Tables are keyed by destination: the host for ARP-Path, its edge bridge
    for Bridge-Path.  A bridge on a refresh probe's trace to a key forwarded
    the probe by a live entry for it (a Bridge-Path egress edge holds its own
    id, refreshed by its hosts' outgoing data), and only the refreshes keep
    entries alive until the census, each along a trace to or from its key.  So
    sum |union of traces to key| <= total <= sum |union of traces to or from key|,
    which does not use the fitted L_e.  Flow-Path is not bounded this way:
    its bounds are None, and its closed form H(H-1)b is checked directly.
    """
    reports = []
    run = Engine.run

    def watched(eng, until=None):
        reports.append(run(eng, until))
        return reports[-1]

    monkeypatch.setattr(Engine, "run", watched)

    def measure(topology, protocol, seed):
        result = measure_empirical_tables(topology, protocol, seed=seed)
        [report] = reports
        reports.clear()
        if protocol == "flow_path":
            return result, None
        key = topology.hosts.get if protocol == "bridge_path" else (lambda host: host)
        H = len(topology.hosts)
        to, touching = {}, {}
        for flow in report.flows[H * (H - 1) // 2:]:  # phase 2: the refresh flows
            src, dst = key(flow["src"]), key(flow["dst"])
            for k in {src, dst}:
                touching.setdefault(k, set()).update(flow["probe_trace"])
            to.setdefault(dst, set()).update(flow["probe_trace"])
        return result, (sum(map(len, to.values())), sum(map(len, touching.values())))

    return measure
