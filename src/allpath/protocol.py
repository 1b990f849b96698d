"""Per-bridge forwarding state machines for ARP-Path, Flow-Path and Bridge-Path.

A bridge "port" is identified by the neighbor reached through it (a bridge
id or a host id); topologies never have parallel links so this is unique.

Table entries have two states.  A *locked* entry is created by the first
copy of a broadcast exploration frame, is immutable until its (short) lock
timer fires, and causes later copies of the same exploration to be
discarded, which is what keeps flooding loop-free.  After the lock timer it
becomes *learnt*: refreshable, re-pointable by a fresher exploration, and
expiring after the (long) learnt timer.

Timers live in a per-bridge expiry heap with lazy deletion, the classic
timer-queue design (Varghese & Lauck, "Hashed and Hierarchical Timing
Wheels", SOSP 1987): every write pushes (expires_at, seq, entry), and a tick
pops only the items that are due, skipping those whose entry has been
replaced, deleted or re-timed since.  A tick therefore costs O(log n) per
due item instead of a scan of the whole table.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace

BROADCAST = "ff:ff:ff:ff:ff:ff"

ARP_REQUEST = "arp_request"
ARP_REPLY = "arp_reply"
DATA = "data"

LOCKED = "locked"
LEARNT = "learnt"

DEFAULT_LOCK_TIMER = 0.1
DEFAULT_LEARNT_TIMER = 30.0

# An expiry heap is rebuilt from the live records once it holds more than
# twice as many items as there are live records, plus this slack, so stale
# items cannot pile up however often entries are refreshed.
EXPIRY_HEAP_SLACK = 64


@dataclass
class Frame:
    kind: str
    src_mac: str
    dst_mac: str
    src_ip: str | None = None
    dst_ip: str | None = None
    outer: tuple | None = None  # (outer_src, outer_dst) edge-bridge ids
    size_bits: int = 512
    race_id: object = None  # identifies one exploration flood
    trace: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind == ARP_REQUEST and self.dst_mac != BROADCAST:
            raise ValueError("ArpRequest must be broadcast")
        if self.outer is not None:
            outer_bcast = self.outer[1] == BROADCAST
            if outer_bcast != (self.dst_mac == BROADCAST):
                raise ValueError("outer_dst is broadcast iff dst_mac is broadcast")

    def forwarded(self, via_bridge):
        """Copy of this frame with the forwarding bridge appended to the trace."""
        return replace(self, trace=self.trace + [via_bridge])


@dataclass
class ForwardingEntry:
    key: object
    port: object
    state: str
    expires_at: float
    race_id: object = None


@dataclass
class ForwardingDecision:
    outputs: list  # list of (port, Frame); empty means drop/absorb
    miss: bool = False
    unresolved: bool = False
    duplicate: bool = False


class BridgeState:
    """Common table machinery; subclasses implement handle()."""

    protocol = None

    def __init__(self, bridge_id, ports, host_ports=(),
                 lock_timer=DEFAULT_LOCK_TIMER, learnt_timer=DEFAULT_LEARNT_TIMER):
        self.bridge_id = bridge_id
        self.ports = list(ports)  # all ports, hosts included
        self.host_ports = set(host_ports)  # membership tests only: set order follows hashes
        self.bridge_ports = [p for p in self.ports if p not in self.host_ports]
        self.host_port_list = [p for p in self.ports if p in self.host_ports]
        self.lock_timer = lock_timer
        self.learnt_timer = learnt_timer
        self.entries = {}
        self._expiry = []  # heap of (expires_at, seq, entry), stale items included
        self._seq = itertools.count()

    # -- entry lifecycle --------------------------------------------------

    def tick(self, now):
        """Apply due timer transitions; returns (key, old_state, new_state) list.

        A locked entry that is due becomes learnt and is pushed again with
        its learnt expiry, so lock -> learnt -> expired can happen in one
        tick.  Transitions come in expiry order.
        """
        transitions = []
        heap = self._expiry
        while heap and heap[0][0] <= now:
            expires_at, _seq, e = heapq.heappop(heap)
            if self.entries.get(e.key) is not e or e.expires_at != expires_at:
                continue  # stale: replaced, deleted or re-timed since the push
            if e.state == LOCKED:
                e.state = LEARNT
                e.expires_at = expires_at + self.learnt_timer
                self._schedule(e)
                transitions.append((e.key, LOCKED, LEARNT))
            else:
                del self.entries[e.key]
                transitions.append((e.key, LEARNT, None))
        return transitions

    def _schedule(self, entry):
        """Queue the expiry of a live entry."""
        heap = self._expiry
        if len(heap) > 2 * len(self.entries) + EXPIRY_HEAP_SLACK:
            heap[:] = [(e.expires_at, next(self._seq), e) for e in self.entries.values()]
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, (entry.expires_at, next(self._seq), entry))

    def _lock(self, key, port, now, race_id):
        e = self.entries[key] = ForwardingEntry(key, port, LOCKED, now + self.lock_timer, race_id)
        self._schedule(e)

    def _learn(self, key, port, now):
        e = self.entries[key] = ForwardingEntry(key, port, LEARNT, now + self.learnt_timer)
        self._schedule(e)

    def _refresh(self, entry, now):
        if entry.state == LEARNT:
            entry.expires_at = now + self.learnt_timer
            self._schedule(entry)

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
        if e.state == LEARNT:
            # fresher exploration re-points a learnt entry
            self._lock(key, ingress, now, race_id)
            return True
        return False  # locked by another in-flight race: immutable

    def _flood_ports(self, ingress):
        return [p for p in self.ports if p != ingress]

    def handle(self, ingress, frame, now) -> ForwardingDecision:
        raise NotImplementedError

    def lookup_port(self, dst_mac, src_mac=None):
        """Side-effect-free unicast lookup; None on miss."""
        raise NotImplementedError


class ArpPathBridge(BridgeState):
    protocol = "arp_path"

    def handle(self, ingress, frame, now):
        self.tick(now)
        if frame.kind == ARP_REQUEST:
            if not self._race_admit(frame.src_mac, ingress, now, frame.race_id):
                return ForwardingDecision([], duplicate=True)
            out = self.forwarded(frame)
            return ForwardingDecision([(p, out) for p in self._flood_ports(ingress)])

        if frame.kind == ARP_REPLY:
            self._learn(frame.src_mac, ingress, now)
            return self._unicast(ingress, frame, now)

        # unicast data: refresh the source entry when it agrees with the port
        src = self.entries.get(frame.src_mac)
        if src is not None and src.port == ingress:
            self._refresh(src, now)
        return self._unicast(ingress, frame, now)

    def _unicast(self, ingress, frame, now):
        e = self.entries.get(frame.dst_mac)
        if e is None:
            return ForwardingDecision([], miss=True)
        self._refresh(e, now)
        return ForwardingDecision([(e.port, self.forwarded(frame))])

    def forwarded(self, frame):
        return frame.forwarded(self.bridge_id)

    def lookup_port(self, dst_mac, src_mac=None):
        e = self.entries.get(dst_mac)
        return None if e is None else e.port


def _prov_key(mac_src, ip_src, ip_dst):
    return ("prov", mac_src, ip_src, ip_dst)


def _flow_key(mac_src, mac_dst):
    return ("flow", mac_src, mac_dst)


class FlowPathBridge(BridgeState):
    protocol = "flow_path"

    def handle(self, ingress, frame, now):
        self.tick(now)
        if frame.kind == ARP_REQUEST:
            # provisional "A?" entry: destination MAC unknown, IPs disambiguate
            key = _prov_key(frame.src_mac, frame.src_ip, frame.dst_ip)
            if not self._race_admit(key, ingress, now, frame.race_id):
                return ForwardingDecision([], duplicate=True)
            out = frame.forwarded(self.bridge_id)
            return ForwardingDecision([(p, out) for p in self._flood_ports(ingress)])

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

        # unicast data matches the (dst, src) flow key
        e = self.entries.get(_flow_key(frame.dst_mac, frame.src_mac))
        if e is None:
            return ForwardingDecision([], miss=True)
        self._refresh(e, now)
        rev = self.entries.get(_flow_key(frame.src_mac, frame.dst_mac))
        if rev is not None and rev.port == ingress:
            self._refresh(rev, now)
        return ForwardingDecision([(e.port, frame.forwarded(self.bridge_id))])

    def lookup_port(self, dst_mac, src_mac=None):
        e = self.entries.get(_flow_key(dst_mac, src_mac))
        return None if e is None else e.port


class BridgePathBridge(BridgeState):
    """ARP-PathM variant: MAC-in-MAC encapsulation at edge bridges.

    Core forwarding runs the ARP-Path machine keyed on the *outer*
    (edge-bridge) addresses.  Edge bridges keep an EdgeDirectory mapping
    remote host MACs to their edge bridge, populated only from decapsulated
    ARP traffic, and deliver to local hosts from the static attachment map:
    each host port is named after the host attached to it.
    """

    protocol = "bridge_path"

    def __init__(self, bridge_id, ports, host_ports=(), **kw):
        super().__init__(bridge_id, ports, host_ports, **kw)
        self.attachments = {h: h for h in self.host_port_list}  # host mac -> host port
        self.directory = {}  # host mac -> (edge id, expires_at)
        self._dir_expiry = []  # heap of (expires_at, seq, mac), stale items included

    @property
    def is_edge(self):
        return bool(self.host_ports)

    def tick(self, now):
        transitions = super().tick(now)
        heap = self._dir_expiry
        while heap and heap[0][0] <= now:
            expires, _seq, mac = heapq.heappop(heap)
            rec = self.directory.get(mac)
            if rec is not None and rec[1] == expires:
                del self.directory[mac]
        return transitions

    def _dir_learn(self, mac, edge, now):
        expires = now + self.learnt_timer
        self.directory[mac] = (edge, expires)
        heap = self._dir_expiry
        if len(heap) > 2 * len(self.directory) + EXPIRY_HEAP_SLACK:
            heap[:] = [(exp, next(self._seq), m) for m, (_edge, exp) in self.directory.items()]
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, (expires, next(self._seq), mac))

    def handle(self, ingress, frame, now):
        self.tick(now)
        if ingress in self.host_ports:
            return self._from_host(ingress, frame, now)
        return self._from_network(ingress, frame, now)

    def _from_host(self, ingress, frame, now):
        self._dir_learn(frame.src_mac, self.bridge_id, now)
        if frame.dst_mac == BROADCAST:
            outer_dst = BROADCAST
        elif frame.dst_mac in self.attachments:
            # both hosts on this edge bridge: deliver locally, no encapsulation
            return ForwardingDecision([(self.attachments[frame.dst_mac], frame)])
        else:
            rec = self.directory.get(frame.dst_mac)
            if rec is None:
                return ForwardingDecision([], unresolved=True)
            outer_dst = rec[0]
        enc = replace(frame, outer=(self.bridge_id, outer_dst))
        return self._core(ingress, enc, now, local_copy=frame)

    def _from_network(self, ingress, frame, now):
        if frame.outer is None:
            return ForwardingDecision([], miss=True)
        return self._core(ingress, frame, now)

    def _core(self, ingress, frame, now, local_copy=None):
        outer_src, outer_dst = frame.outer
        outputs = []
        if outer_dst == BROADCAST:
            if not self._race_admit(outer_src, ingress, now, frame.race_id):
                return ForwardingDecision([], duplicate=True)
            out = frame.forwarded(self.bridge_id)
            outputs = [(p, out) for p in self.bridge_ports if p != ingress]
            if self.is_edge:
                if outer_src != self.bridge_id:
                    self._dir_learn(frame.src_mac, outer_src, now)
                deliver = local_copy if local_copy is not None else self._decap(out)
                outputs += [(p, deliver) for p in self.host_port_list if p != ingress]
            return ForwardingDecision(outputs)

        if frame.kind == ARP_REPLY:
            self._learn(outer_src, ingress, now)
        else:
            src = self.entries.get(outer_src)
            if src is not None and src.port == ingress:
                self._refresh(src, now)

        if outer_dst == self.bridge_id:
            # egress edge: decapsulate and deliver
            self._dir_learn(frame.src_mac, outer_src, now)
            port = self.attachments.get(frame.dst_mac)
            if port is None:
                return ForwardingDecision([], unresolved=True)
            return ForwardingDecision([(port, self._decap(frame.forwarded(self.bridge_id)))])

        e = self.entries.get(outer_dst)
        if e is None:
            return ForwardingDecision([], miss=True)
        self._refresh(e, now)
        return ForwardingDecision([(e.port, frame.forwarded(self.bridge_id))])

    @staticmethod
    def _decap(frame):
        return replace(frame, outer=None)

    def lookup_port(self, dst_mac, src_mac=None):
        """Follow outer keys; at an edge bridge dst_mac is first resolved."""
        if self.is_edge and dst_mac in self.attachments:
            return self.attachments[dst_mac]
        key = dst_mac
        if self.is_edge:
            rec = self.directory.get(dst_mac)
            if rec is not None:
                key = rec[0]
        e = self.entries.get(key)
        return None if e is None else e.port

    def lookup_outer_port(self, outer_dst):
        if outer_dst == self.bridge_id:
            return None
        e = self.entries.get(outer_dst)
        return None if e is None else e.port

    def resolve_edge(self, dst_mac):
        rec = self.directory.get(dst_mac)
        return None if rec is None else rec[0]


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


def dump_tables_csv(bridge_states, fh):
    """Table dump: protocol, bridge, key, port, state, expires_at."""
    fh.write("protocol,bridge,key,port,state,expires_at\n")
    for bs in sorted(bridge_states, key=lambda b: str(b.bridge_id)):
        for key in sorted(bs.entries, key=str):
            e = bs.entries[key]
            fh.write("%s,%s,%s,%s,%s,%.12g\n" % (
                bs.protocol, bs.bridge_id, _fmt_key(key), e.port, e.state, e.expires_at))


def _fmt_key(key):
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)
