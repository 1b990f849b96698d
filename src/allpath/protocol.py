"""Per-bridge forwarding state machines for ARP-Path, Flow-Path and Bridge-Path.

A bridge "port" is identified by the neighbor reached through it (a bridge
id or a host id); topologies never have parallel links so this is unique.

An entry is *locked* until its lock deadline and *learnt* from then on.
The first copy of a broadcast exploration frame creates an entry locked
for LOCK_TIMER and stamped with that exploration's race; later copies of
the same race are discarded wherever the stamp is, which is what keeps
flooding loop-free.  From its deadline on, or from the moment a reply for
the same key learns it, the entry is learnt: refreshable, re-pointable by a
fresher exploration, and expiring LEARNT_TIMER after its deadline or its
last refresh.  A reply that learns a locked entry keeps its race stamp, so
the slower copies of that flood stay duplicates.  The lock is a deadline,
not a state: an entry holds locked_until, the time its lock ends, and it is
locked at now exactly while now < locked_until.  handle() reads now for
the lock, so a lock ends on time whether or not the bridge was ticked.

The protocols differ only in their keys, and each bridge class names its
own.  Its handle() passes the flood key of an exploration to _flood(); its
_unicast_key() gives the key a unicast frame is looked up by; and its
host_key(topology, host) gives the key of the entries that forward to a
host, or is None where a table keys per host couple (Flow-Path).

Expiries live in one heap per bridge with lazy deletion, the classic
timer-queue design (Varghese & Lauck, "Hashed and Hierarchical Timing
Wheels", SOSP 1987): every table write pushes one (expires_at, seq, table,
entry), table being the dict the entry lives in (entries, or Bridge-Path's
edge directory), and a tick pops only the items that are due, skipping
those whose entry has been replaced, deleted or re-timed since, and
deletes the others.  A tick only deletes: it costs O(log n) per due item
instead of a scan of every table, and it pushes nothing.  A stale item
leaves the heap when it comes due, so after a tick a heap holds only the
items pushed in the last LOCK_TIMER + LEARNT_TIMER seconds.  The bridges
read the clock only through the now they are handed: the engine ticks a
bridge to now before it calls handle() on it whenever an expiry is due,
before each route() of a path walk, and every bridge at the end of a run,
so no table is read with an expired entry in it.

A frame's trace, the bridges that forwarded it from first to last, is kept
as a *trail*: a parent-linked tuple (bridge, parent_trail), None before the
first bridge.  forwarded(bridge) links one tuple onto the parent's trail,
so a hop costs O(1) whatever the path length and all copies of a flood share
one trail; the `trace` property builds a list only where a trace is
reported.  The one other copy, with_outer(outer), swaps the outer header of
Bridge-Path's MAC-in-MAC encapsulation (None decapsulates) and keeps the
constructor's check that the outer destination is broadcast exactly when
the inner one is.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

BROADCAST = "ff:ff:ff:ff:ff:ff"

ARP_REQUEST = "arp_request"
ARP_REPLY = "arp_reply"
DATA = "data"

LOCKED = "locked"
LEARNT = "learnt"

LOCK_TIMER = 0.1  # seconds an exploration's entry stays locked
LEARNT_TIMER = 30.0  # seconds a learnt entry lives without a refresh


class Frame:
    """One frame in flight.  Nothing mutates a frame: forwarded() and
    with_outer() return copies, so copies can share their trail."""

    __slots__ = ("kind", "src_mac", "dst_mac", "src_ip", "dst_ip", "outer",
                 "size_bits", "race_id", "trail")

    def __init__(self, kind, src_mac, dst_mac, src_ip=None, dst_ip=None,
                 outer=None, size_bits=512, race_id=None):
        if kind == ARP_REQUEST and dst_mac != BROADCAST:
            raise ValueError("ArpRequest must be broadcast")
        _check_outer(outer, dst_mac)
        self.kind = kind
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.outer = outer  # (outer_src, outer_dst) edge-bridge ids
        self.size_bits = size_bits
        self.race_id = race_id  # identifies one exploration flood
        self.trail = None  # (last bridge, parent trail) links, None when unforwarded

    @property
    def trace(self):
        """Bridges that forwarded this frame, first to last, as a new list."""
        trace = []
        trail = self.trail
        while trail is not None:
            bridge, trail = trail
            trace.append(bridge)
        trace.reverse()
        return trace

    def forwarded(self, via_bridge):
        """Copy of this frame with via_bridge linked onto the shared trail."""
        # every field is the checked one of self, so nothing to validate
        f = object.__new__(Frame)
        f.kind = self.kind
        f.src_mac = self.src_mac
        f.dst_mac = self.dst_mac
        f.src_ip = self.src_ip
        f.dst_ip = self.dst_ip
        f.outer = self.outer
        f.size_bits = self.size_bits
        f.race_id = self.race_id
        f.trail = (via_bridge, self.trail)
        return f

    def with_outer(self, outer):
        """Copy of this frame with another outer header (None decapsulates)."""
        _check_outer(outer, self.dst_mac)
        f = self.forwarded(None)  # a copy, whose outer and trail are set here
        f.outer = outer
        f.trail = self.trail
        return f


def _check_outer(outer, dst_mac):
    if outer is not None and (outer[1] == BROADCAST) != (dst_mac == BROADCAST):
        raise ValueError("outer_dst is broadcast iff dst_mac is broadcast")


@dataclass(slots=True)
class ForwardingEntry:
    """A table entry: locked while now < locked_until, learnt from then on
    until expires_at."""

    key: object
    port: object
    locked_until: float
    expires_at: float
    race_id: object = None

    def state_at(self, now):
        """(state, the time that state ends) of the entry at now."""
        if now < self.locked_until:
            return LOCKED, self.locked_until
        return LEARNT, self.expires_at


# Why a unicast or exploration frame was dropped; the engine counts each
# reason as dropped_<reason>.
DUPLICATE = "duplicate"  # later copy of an exploration this bridge already admitted
MISS = "miss"  # no table entry for the frame's forwarding key
UNRESOLVED = "unresolved"  # Bridge-Path: no edge bridge known for the destination host


@dataclass(slots=True)
class ForwardingDecision:
    outputs: list  # list of (port, Frame); empty means drop/absorb
    drop: str | None = None  # DUPLICATE, MISS or UNRESOLVED when dropped


# The one decision of every DUPLICATE drop, nearly half the frames of a grid
# flood: nothing may mutate it, and _forward and BridgePathBridge._flood only
# mutate decisions with outputs.
DROP_DUPLICATE = ForwardingDecision([], DUPLICATE)


class BridgeState:
    """Common table machinery; subclasses implement handle(ingress, frame,
    now), which learns from a frame that arrived on ingress at now and
    returns its ForwardingDecision.

    route() is the one place a bridge decides where a unicast frame goes.
    It has no side effects and does not stamp the frame, so the engine can
    walk a flow's path through it; handle() applies its learning and
    refreshes around it and appends the bridge to the output's trace.
    Neither deletes expired entries: the caller runs tick(now) first, when
    an expiry is due.  handle() reads now for the lock deadline.
    """

    protocol = None
    # host_key(topology, host): the key of the entries that forward to host;
    # None where tables key per host couple, so that no entry serves a host alone
    host_key = None

    def __init__(self, bridge_id, ports, host_ports=()):
        self.bridge_id = bridge_id
        self.ports = list(ports)  # all ports, hosts included
        self.host_ports = set(host_ports)  # membership tests only: set order follows hashes
        # ingress port -> the ports a flood copy from it goes out on
        self.flood_ports = {i: [p for p in self.ports if p != i] for i in self.ports}
        self.entries = {}
        self.expiry = []  # heap of (expires_at, seq, table, entry), stale items included
        self._seq = itertools.count()

    # -- entry lifecycle --------------------------------------------------

    def tick(self, now):
        """Delete the entries and directory records whose expiry is due by now.

        A lock needs no tick to end, so lock -> learnt -> expired is one
        item.  The engine calls it before a handle() when the head of the
        heap is due, and before every route() of a path walk.
        """
        heap = self.expiry
        while heap and heap[0][0] <= now:
            expires_at, _seq, table, e = heapq.heappop(heap)
            if table.get(e.key) is e and e.expires_at == expires_at:
                del table[e.key]  # else stale: replaced, deleted or re-timed since the push

    def _schedule(self, table, entry):
        """Queue the expiry of a live entry of table."""
        heapq.heappush(self.expiry, (entry.expires_at, next(self._seq), table, entry))

    def _lock(self, key, port, now, race_id):
        locked_until = now + LOCK_TIMER
        e = self.entries[key] = ForwardingEntry(key, port, locked_until,
                                                locked_until + LEARNT_TIMER, race_id)
        self._schedule(self.entries, e)

    def _learn(self, key, port, now):
        # the race stamp stays, so a locked entry learnt early still refuses
        # the later copies of its flood
        old = self.entries.get(key)
        race_id = None if old is None else old.race_id
        e = self.entries[key] = ForwardingEntry(key, port, now, now + LEARNT_TIMER, race_id)
        self._schedule(self.entries, e)

    def _refresh(self, entry, now):
        if now >= entry.locked_until:  # a locked entry is not refreshed
            entry.expires_at = now + LEARNT_TIMER
            self._schedule(self.entries, entry)

    def _race_admit(self, key, ingress, now, race_id):
        """Locked-port race logic shared by all exploration floods.

        Returns True when this copy wins (entry created/re-pointed), False
        when it must be discarded.
        """
        e = self.entries.get(key)
        if e is None:
            self._lock(key, ingress, now, race_id)
            return True
        if e.race_id == race_id:
            return False  # later copy of the same exploration: slower path
        if now >= e.locked_until:
            # fresher exploration re-points a learnt entry
            self._lock(key, ingress, now, race_id)
            return True
        return False  # locked by another in-flight race: immutable

    def _flood(self, ingress, frame, now, key):
        """Admit the first copy of frame's race on key, and send it on every
        port but ingress; a later copy is a DUPLICATE drop."""
        if not self._race_admit(key, ingress, now, frame.race_id):
            return DROP_DUPLICATE
        out = frame.forwarded(self.bridge_id)
        return ForwardingDecision([(p, out) for p in self.flood_ports[ingress]])

    def _learn_source(self, key, ingress, frame, now):
        """A reply creates a learnt entry for its source; data refreshes the
        source's entry when it agrees with the ingress port."""
        if frame.kind == ARP_REPLY:
            self._learn(key, ingress, now)
        else:
            src = self.entries.get(key)
            if src is not None and src.port == ingress:
                self._refresh(src, now)

    def route(self, ingress, frame):
        """Where a unicast frame goes: (decision, matched entry or None).

        Side-effect free; the output frame is not stamped with this bridge.
        The caller has already deleted the entries expired by now.
        """
        e = self.entries.get(self._unicast_key(frame))
        if e is None:
            return ForwardingDecision([], MISS), None
        return ForwardingDecision([(e.port, frame)]), e

    def _forward(self, decision, entry, now):
        """Apply a route() result: refresh the matched entry and append this
        bridge to the trace of the output frame."""
        if entry is not None:
            self._refresh(entry, now)
        if decision.outputs:
            [(port, frame)] = decision.outputs
            decision.outputs = [(port, frame.forwarded(self.bridge_id))]
        return decision


class ArpPathBridge(BridgeState):
    protocol = "arp_path"

    @staticmethod
    def host_key(topology, host):
        return host  # a host's MAC is its id

    def handle(self, ingress, frame, now):
        if frame.kind == ARP_REQUEST:
            return self._flood(ingress, frame, now, frame.src_mac)
        self._learn_source(frame.src_mac, ingress, frame, now)
        return self._forward(*self.route(ingress, frame), now)

    def _unicast_key(self, frame):
        return frame.dst_mac


def _prov_key(mac_src, ip_src, ip_dst):
    return ("prov", mac_src, ip_src, ip_dst)


def _flow_key(mac_src, mac_dst):
    return ("flow", mac_src, mac_dst)


class FlowPathBridge(BridgeState):
    protocol = "flow_path"

    def handle(self, ingress, frame, now):
        if frame.kind == ARP_REQUEST:
            # provisional "A?" entry: destination MAC unknown, IPs disambiguate
            key = _prov_key(frame.src_mac, frame.src_ip, frame.dst_ip)
            return self._flood(ingress, frame, now, key)

        if frame.kind == ARP_REPLY:
            # reply from B to A confirms A? -> AB and creates BA
            prov = self.entries.get(_prov_key(frame.dst_mac, frame.dst_ip, frame.src_ip))
            if prov is None:
                return ForwardingDecision([])  # bridge outside the winning path
            # the provisional entry is kept (it expires on its own timers) so
            # that slower copies of the request flood arriving after the
            # reply are still recognised and discarded
            port_back = prov.port
            self._learn(_flow_key(frame.dst_mac, frame.src_mac), port_back, now)
            self._learn(_flow_key(frame.src_mac, frame.dst_mac), ingress, now)
            return ForwardingDecision([(port_back, frame.forwarded(self.bridge_id))])

        # a data frame that matched its flow entry also refreshes the reverse
        # entry, its source's
        decision, e = self.route(ingress, frame)
        if e is not None:
            self._learn_source(_flow_key(frame.src_mac, frame.dst_mac), ingress, frame, now)
        return self._forward(decision, e, now)

    def _unicast_key(self, frame):
        return _flow_key(frame.dst_mac, frame.src_mac)


class BridgePathBridge(BridgeState):
    """ARP-PathM variant: MAC-in-MAC encapsulation at edge bridges.

    Core forwarding runs the ARP-Path machine keyed on the *outer*
    (edge-bridge) addresses.  Edge bridges keep an EdgeDirectory mapping
    remote host MACs to their edge bridge, populated only from decapsulated
    ARP traffic, and deliver to local hosts directly: each host port is
    named after the host attached to it.  A directory record is a
    ForwardingEntry(mac, edge, now, now + LEARNT_TIMER), learnt from the
    start, on the bridge's one heap.
    """

    protocol = "bridge_path"

    def __init__(self, bridge_id, ports, host_ports=()):
        super().__init__(bridge_id, ports, host_ports)
        self.directory = {}  # host mac -> ForwardingEntry whose port is the edge id

    @staticmethod
    def host_key(topology, host):
        return topology.hosts[host]  # the host's edge bridge

    tick = BridgeState.tick  # in __dict__: perfbench/tracing.py wraps cls.__dict__["tick"]

    def _dir_learn(self, mac, edge, now):
        rec = self.directory[mac] = ForwardingEntry(mac, edge, now, now + LEARNT_TIMER)
        self._schedule(self.directory, rec)

    def handle(self, ingress, frame, now):
        from_host = ingress in self.host_ports
        if from_host:
            if frame.dst_mac == BROADCAST:
                return self._flood(ingress, frame.with_outer((self.bridge_id, BROADCAST)), now,
                                   self.bridge_id)
        elif frame.outer is not None and frame.outer[1] == BROADCAST:
            return self._flood(ingress, frame, now, frame.outer[0])
        decision, e = self.route(ingress, frame)
        if from_host:
            # the core machine sees the frame only if route() encapsulated it
            if frame.dst_mac not in self.host_ports and decision.drop != UNRESOLVED:
                self._learn_source(self.bridge_id, ingress, frame, now)
        elif frame.outer is not None:
            outer_src, outer_dst = frame.outer
            self._learn_source(outer_src, ingress, frame, now)
            if outer_dst == self.bridge_id:
                self._dir_learn(frame.src_mac, outer_src, now)
        return self._forward(decision, e, now)

    def _flood(self, ingress, frame, now, key):
        """The core flood on the source edge bridge key; an edge bridge also
        learns a remote source's edge and decapsulates on its host ports."""
        decision = super()._flood(ingress, frame, now, key)
        if self.host_ports and decision.outputs:
            if key != self.bridge_id:
                self._dir_learn(frame.src_mac, key, now)
            out = decision.outputs[0][1]
            local = out.with_outer(None)
            decision.outputs = [(p, local if p in self.host_ports else out)
                                for p, _ in decision.outputs]
        return decision

    def route(self, ingress, frame):
        """Local delivery, or encapsulation towards the destination's edge
        bridge at an ingress edge; the core lookup of the outer destination;
        decapsulation at the egress edge."""
        if ingress in self.host_ports:
            if frame.dst_mac in self.host_ports:
                # both hosts on this edge bridge: deliver without encapsulation
                return ForwardingDecision([(frame.dst_mac, frame)]), None
            rec = self.directory.get(frame.dst_mac)
            if rec is None:
                return ForwardingDecision([], UNRESOLVED), None
            frame = frame.with_outer((self.bridge_id, rec.port))
        elif frame.outer is None:
            return ForwardingDecision([], MISS), None
        elif frame.outer[1] == self.bridge_id:
            # the directory maps a MAC only to the edge its own host sits on
            return ForwardingDecision([(frame.dst_mac, frame.with_outer(None))]), None
        return super().route(ingress, frame)

    def _unicast_key(self, frame):
        return frame.outer[1]


BRIDGE_CLASSES = {
    "arp_path": ArpPathBridge,
    "flow_path": FlowPathBridge,
    "bridge_path": BridgePathBridge,
}


def count_table_entries(bridge_states):
    """Live forwarding entries per bridge plus the network-wide total.

    For Bridge-Path the EdgeDirectory is reported separately, not counted
    in the forwarding total.
    """
    per_bridge = {}
    directory = {}
    for bs in bridge_states:
        per_bridge[bs.bridge_id] = len(bs.entries)
        if isinstance(bs, BridgePathBridge) and bs.directory:
            directory[bs.bridge_id] = len(bs.directory)
    return {
        "per_bridge": per_bridge,
        "total": sum(per_bridge.values()),
        "edge_directory": directory,
    }


def tables_csv(bridge_states, now):
    """Table dump at now: protocol, bridge, key, port, state, expires_at.

    A locked entry shows its lock deadline, a learnt one its expiry.
    """
    lines = ["protocol,bridge,key,port,state,expires_at\n"]
    # key -> (str(key), its field): a flow's key sits on every bridge of its
    # path, so each distinct key is formatted once
    text = {}
    for bs in sorted(bridge_states, key=lambda b: str(b.bridge_id)):
        entries = bs.entries
        for key in entries:
            if key not in text:
                text[key] = (str(key), _fmt_key(key))
        prefix = "%s,%s," % (bs.protocol, bs.bridge_id)
        for key in sorted(entries, key=lambda k: text[k][0]):
            e = entries[key]
            state, until = e.state_at(now)
            lines.append("%s%s,%s,%s,%.12g\n" % (prefix, text[key][1], e.port, state, until))
    return "".join(lines)


def _fmt_key(key):
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)
