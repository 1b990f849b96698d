"""Deterministic discrete-event engine driving the protocol state machines.

Control frames (ARP exploration, replies, small data probes) are simulated
packet-level, each queued only behind earlier control frames on its output
port (Hop.busy_until), and that queueing decides the latency race.  Bulk flow
payloads, which never delay a control frame, are carried as a flow-level
fluid model (max-min capacity shares, recomputed at flow start/end), since
packet-level simulation of multi-megabyte flows is pointless at this scale.
Each recompute is one call of step, from the time of the previous one to
now: it retires the active flows whose completion time, as the previous
call computed it, is at most now, advances the others, fills them, writes
report.csv's change points and finds the next completion.  step is the
compiled kernel's one function (allpath._fluid_core.step) when it was
built, otherwise its pure-python twin step_py, which specifies the whole
step, fill included; KERNEL names the one in use, "c" or "python".  The
twins return identical results.

Events fire in (fire_time, tie, seq) order.  The tie component is a seeded
random draw made when the event is scheduled, so simultaneous frame
arrivals (common in symmetric grids) are broken randomly but reproducibly.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field

from .protocol import (
    ARP_REPLY,
    ARP_REQUEST,
    BRIDGE_CLASSES,
    BROADCAST,
    DATA,
    DROP_DUPLICATE,
    LEARNT_TIMER,
    LOCK_TIMER,
    MISS,
    Frame,
    count_table_entries,
)
from .topology import Topology

PROTOCOLS = tuple(BRIDGE_CLASSES)

ARP_SIZE_BITS = 64 * 8  # ARP requests and replies
PROBE_SIZE_BITS = 1500 * 8  # the data probe of a flow, capped at the flow size


class ScenarioError(ValueError):
    pass


@dataclass
class FlowSpec:
    src_host: str
    dst_host: str
    size_bits: float
    start_time: float

    def __post_init__(self):
        if not 0 < self.size_bits < math.inf:
            raise ScenarioError("flow size must be finite and positive, not %r" % (self.size_bits,))
        # the clock and every port start at 0, so an earlier start would run at 0
        if not 0 <= self.start_time < math.inf:
            raise ScenarioError("flow start time must be finite and not negative, not %r"
                                % (self.start_time,))
        if self.src_host == self.dst_host:
            raise ScenarioError("flow from host %r to itself" % (self.src_host,))


class Hop:
    """One direction of a link, built once per engine.

    busy_until is when the output port at the near end finishes sending
    what is queued on it; to_host says whether the far end is a host.  Both
    directions of a link share one fluid-plane index, link, so the fluid
    plane sees the link undirected.
    """

    __slots__ = ("bandwidth_bps", "prop_delay_s", "busy_until", "to_host", "link")

    def __init__(self, link, to_host, index):
        self.bandwidth_bps = link.bandwidth_bps
        self.prop_delay_s = link.prop_delay_s
        self.busy_until = 0.0
        self.to_host = to_host
        self.link = index


def step_py(flows, remaining, rates, busy, bandwidth, names, prev, now, rows):
    """One fluid recompute at time now, the previous one having been at prev <= now.

    flows, remaining and rates are parallel lists with one entry per active
    flow, in start order: its tuple of link indices (each link once per
    flow), the bits it had left at prev and its rate since.  busy, bandwidth
    and names have one entry per link: the utilization last written to rows
    for a busy link (None for an idle one), its capacity and its report.csv
    name.  In order, the step

    1. retires each flow that the previous step said would be done by now,
       rate > 0 and prev + remaining / rate <= now, deleting it from the
       three lists.  That is the expression of that step's eta, so a flow
       ends at exactly the time computed for it;
    2. advances each other flow to max(0.0, remaining - rate * dt), where
       dt = now - prev, so that a dt of 0 leaves every flow as it was;
    3. stores the max-min fair rates of the other flows, by progressive
       filling (Bertsekas & Gallager, Data Networks, 2nd ed., 6.5.2).  Each
       round picks the link whose residual capacity, split evenly over its
       unfrozen flows, is smallest: the first such link in order of first
       appearance, over the flows in order and over each flow's links in
       tuple order.  It freezes those flows at that share and takes the
       share once off every link each of them crosses.  Each link keeps a
       live count of its unfrozen flows;
    4. takes the utilization u of each crossed link k as its load /
       bandwidth[k], the load being the left-to-right sum of the rates of
       its flows, in flow order.  It appends to rows a (now, names[k], u)
       row for each link k whose u differs from busy[k] bit for bit, and a
       (now, names[k], 0.0) row for each busy link that no flow crosses any
       more, in ascending k, and updates busy to match;
    5. returns (retired, eta): the positions the retired flows had in the
       lists, ascending, and the earliest now + remaining / rate over the
       flows with rate > 0, or None when there is none.

    This is the specification of the compiled allpath._fluid_core.step,
    which does the same floating-point operations in the same order.
    """
    if not len(flows) == len(remaining) == len(rates):
        raise ValueError("flows, remaining and rates must have one entry per flow")
    if not len(busy) == len(bandwidth) == len(names):
        raise ValueError("busy, bandwidth and names must have one entry per link")
    retired = [i for i, left in enumerate(remaining)
               if rates[i] > 0 and prev + left / rates[i] <= now]
    for i in reversed(retired):
        del flows[i], remaining[i], rates[i]
    dt = now - prev
    for i, left in enumerate(remaining):
        remaining[i] = max(0.0, left - rates[i] * dt)
    n_links = len(bandwidth)
    residual = {}
    count = {}  # links with unfrozen flows -> how many, in order of first appearance
    crossing = {}
    for i, links in enumerate(flows):
        if not isinstance(links, tuple):
            raise TypeError("each flow must be a tuple of link indices")
        if not links:
            raise ValueError("flow %d crosses no link" % i)
        for ln in links:
            if not isinstance(ln, int):
                raise TypeError("link indices must be ints, not %r" % (ln,))
            if ln in count:
                count[ln] += 1
                crossing[ln].append(i)
                continue
            if not 0 <= ln < n_links:
                raise IndexError("link index %r out of range" % (ln,))
            bw = bandwidth[ln]
            if not bw > 0:
                raise ValueError("bandwidth must be positive, not %r" % (bw,))
            count[ln] = 1
            crossing[ln] = [i]
            residual[ln] = bw
    rates[:] = [None] * len(flows)  # None: not frozen yet
    while count:
        best, best_share = None, None
        for ln, n in count.items():
            share = residual[ln] / n
            if best_share is None or share < best_share:
                best, best_share = ln, share
        for i in crossing[best]:
            if rates[i] is not None:
                continue
            rates[i] = best_share
            for ln in flows[i]:
                residual[ln] -= best_share
                n = count[ln] - 1
                if n:
                    count[ln] = n
                else:
                    del count[ln]
    # an explicit loop: sum() of floats compensates from Python 3.12 on
    load = {}
    for links, rate in zip(flows, rates):
        for ln in links:
            load[ln] = load.get(ln, 0.0) + rate
    for k, last in enumerate(busy):
        if k in load:
            u = load[k] / bandwidth[k]
            if last is None or last != u:
                rows.append((now, names[k], u))
                busy[k] = u
        elif last is not None:
            rows.append((now, names[k], 0.0))
            busy[k] = None
    eta = None
    for left, rate in zip(remaining, rates):
        if rate > 0:
            t = now + left / rate
            if eta is None or t < eta:
                eta = t
    return retired, eta


try:  # pragma: no cover - depends on the build
    from ._fluid_core import step
    KERNEL = "c"
except ImportError:  # pragma: no cover
    step = step_py
    KERNEL = "python"


@dataclass
class SimReport:
    protocol: str
    seed: int
    counters: dict = field(default_factory=dict)
    races: list = field(default_factory=list)
    flows: list = field(default_factory=list)
    # (time, "a-b", util) change points, written to report.csv only: at a
    # fluid recompute, one row per link whose utilization changed and a 0 row
    # per link that went idle, in ascending link index.  A link's utilization
    # at time t is that of its last row at or before t (the later row when
    # several share t), and 0 before its first row.
    link_utilization: list = field(default_factory=list)
    # (time, total entries) at the first frame, at every frame or path walk
    # whose timers or learning changed the network-wide total, and at the
    # end if the final tick changed it: change points, not one row per frame
    table_series: list = field(default_factory=list)
    final_tables: dict = field(default_factory=dict)
    # bridge id -> bridge state at the end of the run, and the time of that
    # end; tables.csv is dumped from them, each entry in its state at end_time
    bridges: dict = field(default_factory=dict, repr=False)
    end_time: float = 0.0

    def to_json_dict(self):
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "counters": dict(sorted(self.counters.items())),
            "races": self.races,
            "flows": self.flows,
            "table_series": self.table_series,
            "final_tables": self.final_tables,
        }

    def to_json(self):
        # compact: with no indent, dumps runs on the C encoder
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def utilization_csv(self):
        """report.csv: a header, then one "time,link,utilization" line per
        link_utilization row."""
        lines = ["time,link,utilization\n"]
        last = stamp = None
        for t, link, u in self.link_utilization:
            # the rows of one recompute share its time object: format it once
            if t is not last:
                last, stamp = t, "%.12g," % t
            lines.append("%s%s,%.12g\n" % (stamp, link, u))
        return "".join(lines)


class _Host:
    def __init__(self, host_id, bridge):
        self.id = host_id
        self.bridge = bridge
        self.mac = host_id
        self.ip = "ip-" + host_id
        self.arp_cache = {}  # ip -> mac


class Engine:
    """One scenario = one engine = one single-threaded event loop."""

    def __init__(self, topology: Topology, protocol: str, seed: int = 0):
        if protocol not in PROTOCOLS:
            raise ScenarioError("unknown protocol %r" % (protocol,))
        self.protocol = protocol
        self.seed = seed
        self.rng = random.Random(seed)
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._entries_total = 0  # sum of len(bs.entries) over all bridges
        # the report's counters, written into report.counters by _finalize
        self.delivered = 0
        self.absorbed = 0
        self.flows_completed = 0
        self.flows_unresolved = 0
        self.frames_created = 0
        self.frames_consumed = 0
        self.dropped_duplicate = 0
        self.dropped_miss = 0
        self.dropped_unresolved = 0

        cls = BRIDGE_CLASSES[protocol]
        self.bridges = {}
        for b in topology.bridges:
            hosts = topology.hosts_at(b)
            ports = list(topology.bridge_neighbors(b)) + hosts
            self.bridges[b] = cls(b, ports, host_ports=hosts)

        self.hosts = {h: _Host(h, b) for h, b in topology.hosts.items()}

        # the fluid plane numbers the links once, in name order, so ascending
        # index is the order of report.csv's rows within one recompute
        ranked = [topology.links[name] for name in sorted(topology.links)]
        self._link_names = tuple(ln.name for ln in ranked)
        self._bandwidth = tuple(float(ln.bandwidth_bps) for ln in ranked)
        self.hops = {}  # (node, port) -> Hop, two per link
        for k, ln in enumerate(ranked):
            self.hops[(ln.a, ln.b)] = Hop(ln, ln.b in self.hosts, k)
            self.hops[(ln.b, ln.a)] = Hop(ln, ln.a in self.hosts, k)

        self._race_seq = 0
        self._races = {}  # race_id -> record
        self._pending = {}  # (src_host, dst_ip) -> list of flows awaiting resolution
        # the active flows, in start order, as parallel lists that step
        # updates: flow indices, link tuples, bits left and rates
        self._active_ids = []
        self._active_links = []
        self._remaining = []
        self._rates = []
        self._flow_gen = 0
        self._fluid_t = 0.0
        # per link: the utilization last written to report.csv, None while idle
        self._link_u = [None] * len(ranked)
        self.report = SimReport(protocol=protocol, seed=seed)

    # -- scheduling -------------------------------------------------------

    def schedule(self, time, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (time, self.rng.random(), self._seq, fn, args))

    def run(self, until=None):
        if until is not None and not 0 < until < math.inf:
            raise ScenarioError("duration must be finite and positive, not %r" % (until,))
        limit = math.inf if until is None else until
        heap, heappop = self._heap, heapq.heappop
        while heap:
            time, _tie, _seq, fn, args = heappop(heap)
            if time > limit:
                heap.clear()
                break
            self.now = time
            fn(time, *args)
        if until is not None:
            self.now = until
        self._finalize()
        return self.report

    # -- frame transport --------------------------------------------------

    def _send(self, node, port, frame, now):
        """Queue frame on the hop from node to port; it arrives at host or bridge port.

        Pushes the event that schedule() would push, with its one tie draw.
        """
        hop = self.hops[(node, port)]
        busy = hop.busy_until
        if now > busy:
            busy = now
        busy += frame.size_bits / hop.bandwidth_bps
        hop.busy_until = busy
        self.frames_created += 1
        self._seq += 1
        if hop.to_host:
            fn, args = self._frame_at_host, (port, frame)
        else:
            fn, args = self._frame_at_bridge, (port, node, frame)
        heapq.heappush(self._heap, (busy + hop.prop_delay_s, self.rng.random(), self._seq,
                                    fn, args))

    # -- event handlers ---------------------------------------------------

    def _frame_at_bridge(self, now, bridge_id, ingress, frame):
        self.frames_consumed += 1
        bs = self.bridges[bridge_id]
        entries = bs.entries
        before = len(entries)
        expiry = bs.expiry
        if expiry and expiry[0][0] <= now:
            bs.tick(now)
        decision = bs.handle(ingress, frame, now)
        if decision is DROP_DUPLICATE:
            self.dropped_duplicate += 1
            # a duplicate changes no table, and the admission of its race here
            # made the first table_series row: a row is due only if the tick
            # deleted an entry
            if len(entries) == before:
                return
        else:
            for port, fr in decision.outputs:
                if port == ingress:
                    raise AssertionError("forwarding back out the ingress port")
                self._send(bridge_id, port, fr, now)
            drop = decision.drop
            if drop == MISS:
                self.dropped_miss += 1
            elif drop is not None:
                self.dropped_unresolved += 1
        # only the handling bridge's table can change, by its timers and by
        # the frame, so the total moves by its size change, and a
        # table_series row is due exactly then
        changed = len(entries) - before
        if changed or not self.report.table_series:
            self._entries_total += changed
            self.report.table_series.append((now, self._entries_total))

    def _frame_at_host(self, now, host_id, frame):
        self.frames_consumed += 1
        host = self.hosts[host_id]
        if frame.kind == ARP_REQUEST:
            host.arp_cache[frame.src_ip] = frame.src_mac
            if frame.dst_ip == host.ip:
                race = self._races.get(frame.race_id)
                if race is not None:
                    race["winning_trace"] = frame.trace
                reply = Frame(kind=ARP_REPLY, src_mac=host.mac, dst_mac=frame.src_mac,
                              src_ip=host.ip, dst_ip=frame.src_ip,
                              size_bits=ARP_SIZE_BITS, race_id=frame.race_id)
                self._send(host.id, host.bridge, reply, now)
            else:
                self.absorbed += 1
        elif frame.kind == ARP_REPLY:
            if frame.dst_mac == host.mac:
                host.arp_cache[frame.src_ip] = frame.src_mac
                race = self._races.get(frame.race_id)
                if race is not None:
                    race["reply_trace"] = frame.trace
                self._resolve_pending(host, frame.src_ip, now)
            else:
                self.absorbed += 1
        elif frame.dst_mac == host.mac:
            # the only data frames are probes, and a probe carries its flow index
            self.delivered += 1
            self.report.flows[frame.race_id]["probe_trace"] = frame.trace
        else:
            self.absorbed += 1

    # -- flows ------------------------------------------------------------

    def add_flow(self, spec: FlowSpec):
        if spec.src_host not in self.hosts or spec.dst_host not in self.hosts:
            raise ScenarioError("unknown flow endpoint %r -> %r" % (spec.src_host, spec.dst_host))
        idx = len(self.report.flows)
        self.report.flows.append({
            "src": spec.src_host, "dst": spec.dst_host, "size_bits": spec.size_bits,
            "start_time": spec.start_time, "path": None, "probe_trace": None,
            "data_start": None, "data_end": None, "status": "pending",
        })
        self.schedule(spec.start_time, self._flow_start, idx, spec)
        return idx

    def _flow_start(self, now, idx, spec):
        src = self.hosts[spec.src_host]
        dst = self.hosts[spec.dst_host]
        path = self.walk_path(spec.src_host, spec.dst_host) if dst.ip in src.arp_cache else None
        if path is not None:
            self._start_data(idx, now, path)
            return
        key = (spec.src_host, dst.ip)
        if key in self._pending:
            self._pending[key].append(idx)
            return
        self._pending[key] = [idx]
        self._race_seq += 1
        race_id = (src.mac, self._race_seq)
        self._races[race_id] = {
            "race_id": list(race_id), "src": spec.src_host, "target": spec.dst_host,
            "winning_trace": None, "reply_trace": None,
        }
        req = Frame(kind=ARP_REQUEST, src_mac=src.mac, dst_mac=BROADCAST,
                    src_ip=src.ip, dst_ip=dst.ip,
                    size_bits=ARP_SIZE_BITS, race_id=race_id)
        self._send(src.id, src.bridge, req, now)

    def _resolve_pending(self, host, resolved_ip, now):
        key = (host.id, resolved_ip)
        for idx in self._pending.pop(key, []):
            rec = self.report.flows[idx]
            self._start_data(idx, now, self.walk_path(rec["src"], rec["dst"]))

    def _start_data(self, idx, now, path):
        """Start flow idx on path, the walk_path result taken at now."""
        rec = self.report.flows[idx]
        if path is None:
            rec["status"] = "miss"
            self.flows_unresolved += 1
            return
        rec["path"] = path
        rec["data_start"] = now
        rec["status"] = "active"
        src = self.hosts[rec["src"]]
        dst = self.hosts[rec["dst"]]
        probe = Frame(kind=DATA, src_mac=src.mac, dst_mac=dst.mac,
                      src_ip=src.ip, dst_ip=dst.ip,
                      size_bits=min(PROBE_SIZE_BITS, int(rec["size_bits"])) or 1,
                      race_id=idx)
        self._send(src.id, src.bridge, probe, now)
        self._active_ids.append(idx)
        self._active_links.append(self._flow_links(rec))
        self._remaining.append(float(rec["size_bits"]))
        self._rates.append(0.0)
        self._fluid_recompute(now)

    # -- table walking (side-effect-free path lookup) ---------------------

    def walk_path(self, src_host, dst_host):
        """Bridges a data frame would cross through each bridge's route(),
        or None if a table misses or the walk revisits more bridges than exist.

        Each bridge is ticked to now before its route(); a walk that
        changed the total appends one table_series row.
        """
        path = self._walk(src_host, dst_host)
        self._book_total(self.now)
        return path

    def _walk(self, src_host, dst_host):
        src = self.hosts[src_host]
        dst = self.hosts[dst_host]
        frame = Frame(kind=DATA, src_mac=src.mac, dst_mac=dst.mac)
        cur, ingress = src.bridge, src.id
        path = []
        while len(path) <= len(self.bridges):
            path.append(cur)
            bs = self.bridges[cur]
            self._tick(bs, self.now)
            decision, _entry = bs.route(ingress, frame)
            if not decision.outputs:
                return None
            [(port, frame)] = decision.outputs
            if port == dst.id:
                return path
            if port not in self.bridges:
                return None
            cur, ingress = port, cur
        return None

    # -- fluid data plane -------------------------------------------------

    def _flow_links(self, rec):
        """Fluid-plane indices of flow rec's links: its two host links, then its path.

        The fill breaks ties by first appearance, so the order is fixed.
        """
        path = rec["path"]
        hops = [(rec["src"], path[0]), (path[-1], rec["dst"])] + list(zip(path, path[1:]))
        return tuple(self.hops[h].link for h in hops)

    def _fluid_recompute(self, now):
        retired, eta = step(self._active_links, self._remaining, self._rates, self._link_u,
                            self._bandwidth, self._link_names, self._fluid_t, now,
                            self.report.link_utilization)
        self._fluid_t = now
        ids = self._active_ids
        for pos in reversed(retired):
            rec = self.report.flows[ids.pop(pos)]
            rec["data_end"] = now
            rec["status"] = "done"
            self.flows_completed += 1
        if eta is not None:
            self._flow_gen += 1
            self.schedule(eta, self._fluid_check, self._flow_gen)

    def _fluid_check(self, now, gen):
        if gen != self._flow_gen:
            return
        self._fluid_recompute(now)

    # -- reporting --------------------------------------------------------

    def _tick(self, bs, now):
        """Apply the timers of bs due by now and book the change in the total."""
        before = len(bs.entries)
        bs.tick(now)
        self._entries_total += len(bs.entries) - before

    def _book_total(self, now):
        """Append a table_series row at now if the total moved since the last row."""
        series = self.report.table_series
        if series and series[-1][1] != self._entries_total:
            series.append((now, self._entries_total))

    def _finalize(self):
        """Apply the timers due by the end, then fill in the report."""
        for bs in self.bridges.values():
            self._tick(bs, self.now)
        self._book_total(self.now)
        report = self.report
        report.races = [self._races[k] for k in sorted(self._races, key=str)]
        report.final_tables = count_table_entries(self.bridges.values())
        report.bridges = self.bridges
        report.end_time = self.now
        report.counters = {
            "delivered": self.delivered, "absorbed": self.absorbed,
            "flows_completed": self.flows_completed, "flows_unresolved": self.flows_unresolved,
            "frames_created": self.frames_created, "frames_consumed": self.frames_consumed,
            "in_flight": self.frames_created - self.frames_consumed,
            "dropped_duplicate": self.dropped_duplicate, "dropped_miss": self.dropped_miss,
            "dropped_unresolved": self.dropped_unresolved,
        }


def run_scenario(topology, protocol, workload, seed=0, duration=None) -> SimReport:
    """Run a traffic scenario to completion; deterministic given (workload, seed)."""
    eng = Engine(topology, protocol, seed=seed)
    for spec in workload:
        eng.add_flow(spec)
    return eng.run(until=duration)


def measure_empirical_tables(topology, protocol, seed=0):
    """Steady-state table census for a deterministic all-pairs workload.

    Phase 1 establishes every unordered host pair (ARP exchange + data);
    phase 2 re-sends data in both directions so used-path entries are
    refreshed; the census happens after the unrefreshed flood remnants have
    expired but before the refreshed entries do.

    Returns (total_entries, b, L_e, B_E, H) in the sense of the table-size
    equations.  The protocol's host_key names the table key of each host:
    the host for ARP-Path, its edge bridge for Bridge-Path, and the host
    itself for Flow-Path, which keys per host couple.  b is the mean bridge count of the
    refresh probes' paths, one path per ordered pair of distinct keys.  L_e
    is not measured but solved from the total, as total / #keys - b, so the
    ARP-Path and Bridge-Path equations hold by construction; Flow-Path's L_e
    is 0 and its H(H-1)b is a real prediction.
    """
    hosts = sorted(topology.hosts)
    host_key = BRIDGE_CLASSES[protocol].host_key
    key = {h: host_key(topology, h) if host_key else h for h in hosts}
    n_keys = len(set(key.values()))
    if n_keys < 2:
        raise ScenarioError("need hosts under at least two table keys")
    gap = max(4 * LOCK_TIMER, 0.25)
    pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]
    window = gap * len(pairs)
    if window > LEARNT_TIMER / 2 - 1:
        raise ScenarioError("workload window too long for the learnt timer")

    workload = []
    t = 0.0
    for a, b in pairs:
        workload.append(FlowSpec(a, b, PROBE_SIZE_BITS, t))
        t += gap
    t = window + LOCK_TIMER + LEARNT_TIMER / 2
    for a, b in pairs:  # the refresh flows, after the len(pairs) phase-1 flows
        workload.append(FlowSpec(a, b, PROBE_SIZE_BITS, t))
        workload.append(FlowSpec(b, a, PROBE_SIZE_BITS, t + gap / 4))
        t += gap / 2
    measure_at = window + LOCK_TIMER + LEARNT_TIMER + 1.0
    report = run_scenario(topology, protocol, workload, seed=seed, duration=measure_at)

    total = report.final_tables["total"]
    traces = {}  # (src key, dst key) -> the last probe trace between them
    for rec in report.flows[len(pairs):]:
        if rec["probe_trace"] is None:
            raise ScenarioError("refresh probe %s->%s was not delivered" % (rec["src"], rec["dst"]))
        ends = (key[rec["src"]], key[rec["dst"]])
        if ends[0] != ends[1]:
            traces[ends] = rec["probe_trace"]

    lens = [len(tr) for tr in traces.values()]
    b_mean = sum(lens) / len(lens)
    L_e = total / n_keys - b_mean if host_key else 0.0
    B_E = len({topology.hosts[h] for h in hosts})
    return total, b_mean, L_e, B_E, len(hosts)
