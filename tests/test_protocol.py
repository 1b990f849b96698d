"""Per-bridge forwarding state machines: locking, learning, timers."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allpath.protocol import (
    ARP_REPLY,
    ARP_REQUEST,
    BROADCAST,
    DATA,
    DUPLICATE,
    LEARNT,
    LEARNT_TIMER,
    LOCK_TIMER,
    LOCKED,
    MISS,
    UNRESOLVED,
    ArpPathBridge,
    BridgePathBridge,
    FlowPathBridge,
    Frame,
    count_table_entries,
    tables_csv,
)


def req(src, dst_ip, race, src_ip=None):
    return Frame(kind=ARP_REQUEST, src_mac=src, dst_mac=BROADCAST,
                 src_ip=src_ip or ("ip-" + src), dst_ip=dst_ip, race_id=race)


def reply(src, dst, race):
    return Frame(kind=ARP_REPLY, src_mac=src, dst_mac=dst,
                 src_ip="ip-" + src, dst_ip="ip-" + dst, race_id=race)


def data(src, dst):
    return Frame(kind=DATA, src_mac=src, dst_mac=dst)


class TestFrameValidation:
    def test_request_must_be_broadcast(self):
        with pytest.raises(ValueError):
            Frame(kind=ARP_REQUEST, src_mac="A", dst_mac="B")

    def test_outer_broadcast_consistency(self):
        with pytest.raises(ValueError):
            Frame(kind=DATA, src_mac="A", dst_mac="B", outer=(1, BROADCAST))
        with pytest.raises(ValueError):
            Frame(kind=ARP_REQUEST, src_mac="A", dst_mac=BROADCAST, outer=(1, 3))

    def test_trace_appends_without_mutation(self):
        f = Frame(kind=DATA, src_mac="A", dst_mac="B")
        g = f.forwarded(7)
        assert f.trace == [] and g.trace == [7]

    def test_frame_is_slotted(self):
        f = Frame(kind=DATA, src_mac="A", dst_mac="B")
        assert not hasattr(f, "__dict__")
        with pytest.raises(AttributeError):
            f.colour = "red"

    def test_forwarded_copy_shares_its_parents_trail(self):
        f = req("A", "ip-B", race=1).forwarded(1).forwarded(2)
        copies = [f.forwarded(b) for b in (3, 4)]
        for g, b in zip(copies, (3, 4)):
            assert g.trail == (b, f.trail) and g.trail[1] is f.trail  # linked, not copied
            assert g.trace == [1, 2, b]
            assert (g.kind, g.src_mac, g.dst_mac, g.race_id) == (f.kind, f.src_mac, f.dst_mac, 1)
        assert f.trace == [1, 2]

    def test_trace_is_a_fresh_list(self):
        f = data("A", "B").forwarded(1).forwarded(2)
        t = f.trace
        assert t == [1, 2] and f.trace is not t
        t.append(3)
        t[0] = 9
        assert f.trace == [1, 2]

    def test_with_outer_keeps_the_trail(self):
        f = req("A", "ip-B", race=1).forwarded(1)
        enc = f.with_outer((1, BROADCAST))
        assert enc.outer == (1, BROADCAST) and f.outer is None
        assert enc.trail is f.trail
        assert enc.with_outer(None).outer is None

    def test_with_outer_checks_the_outer_pair(self):
        with pytest.raises(ValueError):
            data("A", "B").with_outer((1, BROADCAST))
        with pytest.raises(ValueError):
            req("A", "ip-B", race=1).with_outer((1, 3))


class TestArpPath:
    def test_flood_locks_and_fans_out(self):
        bs = ArpPathBridge(2, ports=[1, 3, "X"], host_ports=["X"])
        d = bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        assert bs.entries["A"].state_at(0.0) == (LOCKED, LOCK_TIMER)
        assert bs.entries["A"].port == 1
        assert sorted((str(p) for p, _ in d.outputs)) == ["3", "X"]

    def test_duplicate_copy_discarded(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        d = bs.handle(3, req("A", "ip-B", race=1), now=0.001)
        assert d.drop == DUPLICATE and d.outputs == []
        assert bs.entries["A"].port == 1  # locked binding untouched

    def test_locked_entry_immutable_across_races(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        d = bs.handle(3, req("A", "ip-C", race=2), now=0.01)  # still locked
        assert d.drop == DUPLICATE
        assert bs.entries["A"].port == 1

    def test_learnt_entry_repointed_by_fresher_race(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        bs.tick(2 * LOCK_TIMER)  # nothing due: the lock ended at its deadline
        d = bs.handle(3, req("A", "ip-C", race=2), now=2 * LOCK_TIMER)
        assert d.drop is None
        assert bs.entries["A"].port == 3
        assert bs.entries["A"].state_at(2 * LOCK_TIMER)[0] == LOCKED

    @pytest.mark.parametrize("cls", [ArpPathBridge, FlowPathBridge])
    def test_the_lock_ends_at_its_deadline_without_a_tick(self, cls):
        # handle reads now for the lock: no tick runs, and the next race is
        # refused just before LOCK_TIMER and admitted at it
        bs = cls(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        before = math.nextafter(LOCK_TIMER, 0.0)
        assert bs.handle(3, req("A", "ip-B", race=2), now=before).drop == DUPLICATE
        d = bs.handle(3, req("A", "ip-B", race=3), now=LOCK_TIMER)
        assert d.drop is None and [p for p, _ in d.outputs] == [1]
        [entry] = bs.entries.values()
        assert entry.port == 3 and entry.race_id == 3
        assert entry.state_at(LOCK_TIMER) == (LOCKED, 2 * LOCK_TIMER)

    def test_reply_creates_learnt_directly(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        d = bs.handle(3, reply("B", "A", race=1), now=0.001)
        assert bs.entries["B"].state_at(0.001) == (LEARNT, 0.001 + LEARNT_TIMER)
        assert d.outputs[0][0] == 1  # forwarded along A's locked port

    def test_unicast_miss_reported(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        d = bs.handle(1, data("A", "Z"), now=0.0)
        assert d.drop == MISS and d.outputs == []

    def test_tick_transitions(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        entry = bs.entries["A"]
        for now, shown in [(0.9 * LOCK_TIMER, (LOCKED, LOCK_TIMER)),
                           (1.1 * LOCK_TIMER, (LEARNT, LOCK_TIMER + LEARNT_TIMER)),
                           (LEARNT_TIMER, (LEARNT, LOCK_TIMER + LEARNT_TIMER))]:
            bs.tick(now)
            assert bs.entries["A"] is entry and entry.state_at(now) == shown
        bs.tick(LOCK_TIMER + LEARNT_TIMER)
        assert "A" not in bs.entries

    def test_refresh_extends_expiry(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(3, reply("B", "A", race=1), now=0.0)
        before = bs.entries["B"].expires_at
        bs.handle(1, data("A", "B"), now=0.5)
        assert bs.entries["B"].expires_at > before


class TestFlowPath:
    def test_provisional_entry_keyed_by_ips(self):
        bs = FlowPathBridge(1, ports=[2, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        assert ("prov", "A", "ip-A", "ip-B") in bs.entries

    def test_reply_confirms_both_directions(self):
        bs = FlowPathBridge(1, ports=[2, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        d = bs.handle(2, reply("B", "A", race=1), now=0.001)
        assert bs.entries[("flow", "A", "B")].port == "A"
        assert bs.entries[("flow", "B", "A")].port == 2
        assert d.outputs[0][0] == "A"

    def test_single_bridge_exchange_two_flow_entries(self):
        # A - 1 - B: after the exchange bridge 1 holds AB and BA
        bs = FlowPathBridge(1, ports=["A", "B"], host_ports=["A", "B"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        bs.handle("B", reply("B", "A", race=1), now=0.001)
        flows = [k for k in bs.entries if k[0] == "flow"]
        assert sorted(flows) == [("flow", "A", "B"), ("flow", "B", "A")]

    def test_provisional_survives_reply_so_late_copies_discard(self):
        # a flood copy arriving after the reply must not restart the flood
        bs = FlowPathBridge(1, ports=[2, 3, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        bs.handle(2, reply("B", "A", race=1), now=0.001)
        late = bs.handle(3, req("A", "ip-B", race=1), now=0.002)
        assert late.drop == DUPLICATE and late.outputs == []

    def test_reply_off_winning_path_dropped(self):
        bs = FlowPathBridge(1, ports=[2, 3])
        d = bs.handle(2, reply("B", "A", race=1), now=0.0)
        assert d.outputs == []

    def test_unicast_matches_couple_key(self):
        bs = FlowPathBridge(1, ports=[2, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        bs.handle(2, reply("B", "A", race=1), now=0.001)
        d = bs.handle("A", data("A", "B"), now=0.002)
        assert d.outputs[0][0] == 2
        miss = bs.handle("A", data("A", "C"), now=0.003)
        assert miss.drop == MISS

    def test_independent_couples(self):
        bs = FlowPathBridge(1, ports=[2, 3, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        bs.handle(2, reply("B", "A", race=1), now=0.001)
        bs.handle("A", req("A", "ip-C", race=2), now=0.2)
        bs.handle(3, reply("C", "A", race=2), now=0.201)
        assert bs.entries[("flow", "B", "A")].port == 2
        assert bs.entries[("flow", "C", "A")].port == 3


class TestBridgePath:
    def make_edge(self):
        return BridgePathBridge(1, ports=[2, "A"], host_ports=["A"])

    def test_encapsulates_broadcast_from_host(self):
        bs = self.make_edge()
        d = bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        (port, out), = d.outputs
        assert port == 2
        assert out.outer == (1, BROADCAST)

    def test_core_keys_are_edge_ids(self):
        core = BridgePathBridge(2, ports=[1, 3])
        f = req("A", "ip-B", race=1)
        enc = Frame(kind=f.kind, src_mac=f.src_mac, dst_mac=f.dst_mac,
                    src_ip=f.src_ip, dst_ip=f.dst_ip, outer=(1, BROADCAST),
                    race_id=1)
        core.handle(1, enc, now=0.0)
        assert list(core.entries) == [1]  # keyed by the edge bridge id

    def test_local_delivery_without_encapsulation(self):
        bs = BridgePathBridge(1, ports=["A", "B"], host_ports=["A", "B"])
        d = bs.handle("A", data("A", "B"), now=0.0)
        (port, out), = d.outputs
        assert port == "B" and out.outer is None
        assert out.trace == [1]  # stamped like every other delivery

    def test_local_flood_copy_is_stamped(self):
        bs = BridgePathBridge(1, ports=[2, "A", "B"], host_ports=["A", "B"])
        d = bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        out = dict(d.outputs)
        assert out[2].outer == (1, BROADCAST) and out[2].trace == [1]
        assert out["B"].outer is None and out["B"].trace == [1]

    def test_unresolved_unicast_from_host(self):
        bs = self.make_edge()
        d = bs.handle("A", data("A", "Z"), now=0.0)
        assert d.drop == UNRESOLVED and d.outputs == []

    def test_frames_kept_off_the_core_learn_no_core_entry(self):
        # a locally delivered or unresolved reply is never encapsulated, so
        # the edge does not learn its own id; an encapsulated one does
        bs = BridgePathBridge(1, ports=[2, "A", "B"], host_ports=["A", "B"])
        bs.handle("B", reply("B", "A", race=1), now=0.0)
        bs.handle("B", reply("B", "Z", race=2), now=0.0)
        assert bs.entries == {}
        bs._dir_learn("C", 3, now=0.0)
        bs.handle("B", reply("B", "C", race=3), now=0.0)
        assert bs.entries[1].port == "B" and bs.entries[1].state_at(0.0) == (LEARNT, LEARNT_TIMER)

    def test_directory_learned_from_decapsulated_arp(self):
        bs = self.make_edge()
        enc = Frame(kind=ARP_REQUEST, src_mac="B", dst_mac=BROADCAST,
                    src_ip="ip-B", dst_ip="ip-A", outer=(3, BROADCAST), race_id=9)
        d = bs.handle(2, enc, now=0.0)
        assert bs.directory["B"].port == 3
        delivered = [out for port, out in d.outputs if port == "A"]
        assert delivered and delivered[0].outer is None  # decapsulated copy

    def test_directory_expires(self):
        bs = self.make_edge()
        bs._dir_learn("B", 3, now=0.0)
        bs.tick(LEARNT_TIMER + 1.0)
        assert "B" not in bs.directory

    def test_tick_expires_the_directory_with_no_forwarding_timer_due(self):
        bs = self.make_edge()
        bs._dir_learn("B", 3, now=0.0)
        bs._learn(3, 2, now=LEARNT_TIMER / 2)  # due long after the directory record
        bs.tick(LEARNT_TIMER + 1.0)
        d = bs.handle("A", data("A", "B"), now=LEARNT_TIMER + 1.0)
        assert "B" not in bs.directory and d.drop == UNRESOLVED
        assert list(bs.entries) == [3]


def _table_state(bs):
    entries = [(k, e.port, e.locked_until, e.expires_at, e.race_id) for k, e in bs.entries.items()]
    return entries, len(bs.expiry), dict(getattr(bs, "directory", {}))


class TestRoute:
    @pytest.mark.parametrize("cls", [ArpPathBridge, FlowPathBridge, BridgePathBridge])
    def test_route_is_side_effect_free_and_handle_follows_it(self, cls):
        # edge bridge 1 with host A; B answers A's request through port 2
        bs = cls(1, ports=[2, 3, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        answer = reply("B", "A", race=1)
        if cls is BridgePathBridge:
            answer = answer.with_outer((5, 1))
        bs.handle(2, answer, now=0.001)
        before = _table_state(bs)
        frame = data("A", "B")
        decision, entry = bs.route("A", frame)
        [(port, routed)] = decision.outputs
        assert port == 2 and routed.trace == [] and entry is not None
        assert _table_state(bs) == before and frame.trace == []
        [(port_h, out)] = bs.handle("A", frame, now=0.5).outputs
        assert port_h == 2 and out.trace == [1]
        assert entry.expires_at == 0.5 + LEARNT_TIMER  # handle refreshed it
        if cls is BridgePathBridge:
            assert routed.outer == out.outer == (1, 5)

    @pytest.mark.parametrize("cls", [ArpPathBridge, FlowPathBridge, BridgePathBridge])
    def test_route_misses_on_empty_tables(self, cls):
        bs = cls(1, ports=[2, "A"], host_ports=["A"])
        decision, entry = bs.route("A", data("A", "B"))
        expected = UNRESOLVED if cls is BridgePathBridge else MISS
        assert decision.outputs == [] and decision.drop == expected and entry is None


class TestCounting:
    def test_empty_network_zero(self):
        counts = count_table_entries([ArpPathBridge(1, ports=[2]),
                                      ArpPathBridge(2, ports=[1])])
        assert counts["total"] == 0

    def test_directory_reported_separately(self):
        bs = BridgePathBridge(1, ports=[2, "A"], host_ports=["A"])
        bs._dir_learn("B", 3, now=0.0)
        counts = count_table_entries([bs])
        assert counts["total"] == 0
        assert counts["edge_directory"] == {1: 1}

    def test_dump_tables_csv(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        lines = tables_csv([bs], 0.0).strip().split("\n")
        assert lines[0] == "protocol,bridge,key,port,state,expires_at"
        assert lines[1] == "arp_path,2,A,1,locked,0.1"
        # the same entry at its lock deadline: learnt, with its learnt expiry
        assert tables_csv([bs], LOCK_TIMER).split("\n")[1] == "arp_path,2,A,1,learnt,30.1"


class TwoStateTables:
    """Reference: the two-state tables that the lock deadline replaced.

    A lock is a state, with the lock's end as its expiry, that the first
    tick at or after that expiry turns learnt, re-timed LEARNT_TIMER later.
    The tick is a scan of every entry and directory record.  Entries are
    [port, state, expires_at, race_id] and records [edge, expires_at].
    """

    def __init__(self):
        self.entries = {}
        self.directory = {}

    def tick(self, now):
        for key, e in list(self.entries.items()):
            if e[1] == LOCKED and now >= e[2]:
                e[1] = LEARNT
                e[2] = e[2] + LEARNT_TIMER
            if e[1] == LEARNT and now >= e[2]:
                del self.entries[key]
        for mac, rec in list(self.directory.items()):
            if now >= rec[1]:
                del self.directory[mac]

    def race_admit(self, key, port, now, race_id):
        e = self.entries.get(key)
        if e is not None and (e[3] == race_id or e[1] == LOCKED):
            return False
        self.entries[key] = [port, LOCKED, now + LOCK_TIMER, race_id]
        return True

    def learn(self, key, port, now):
        old = self.entries.get(key)
        self.entries[key] = [port, LEARNT, now + LEARNT_TIMER, None if old is None else old[3]]

    def refresh(self, key, now):
        e = self.entries.get(key)
        if e is not None and e[1] == LEARNT:
            e[2] = now + LEARNT_TIMER

    def dir_learn(self, mac, edge, now):
        self.directory[mac] = [edge, now + LEARNT_TIMER]

    def snapshot(self):
        return ([(k, *e) for k, e in self.entries.items()],
                [(mac, edge, LEARNT, expires_at) for mac, (edge, expires_at) in self.directory.items()])


KEYS = ["A", "B"]
PORTS = [1, 2, 3]
# time steps around the lock and learnt timers: 0 gives equal timestamps,
# LOCK_TIMER + LEARNT_TIMER takes a fresh lock through learnt to expired in
# one tick
STEPS = [0.0, 0.0, 0.4 * LOCK_TIMER, LOCK_TIMER, 0.5 * LEARNT_TIMER, 0.5 * LEARNT_TIMER,
         0.75 * LEARNT_TIMER, LEARNT_TIMER, LOCK_TIMER + LEARNT_TIMER, 2 * LEARNT_TIMER]
HALF = 0.5 * LEARNT_TIMER
OPS = st.one_of(
    st.tuples(st.just("admit"), st.sampled_from(KEYS), st.sampled_from(PORTS),
              st.integers(0, 3)),
    st.tuples(st.just("learn"), st.sampled_from(KEYS), st.sampled_from(PORTS)),
    st.tuples(st.just("refresh"), st.sampled_from(KEYS)),
    st.tuples(st.just("dir"), st.sampled_from(KEYS), st.sampled_from(PORTS)),
    st.tuples(st.just("tick"), st.sampled_from(STEPS)),
)


def snapshot(bs, now):
    """bs's tables as TwoStateTables.snapshot shows them: each entry's state
    at now and the time it ends."""
    return ([(k, e.port, *e.state_at(now), e.race_id) for k, e in bs.entries.items()],
            [(mac, rec.port, *rec.state_at(now)) for mac, rec in bs.directory.items()])


class TestExpiryHeap:
    """The deadline tables against the two-state reference on random operation sequences."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(OPS, max_size=80))
    # a refresh or re-learn leaves a stale heap item due before the live one
    @example(ops=[("learn", "A", 1), ("tick", HALF), ("refresh", "A"), ("tick", HALF),
                  ("tick", LEARNT_TIMER)])
    @example(ops=[("dir", "A", 1), ("tick", HALF), ("dir", "A", 2), ("tick", HALF),
                  ("tick", LEARNT_TIMER)])
    # a directory record and an entry of one key, written at the same now: one tick expires both
    @example(ops=[("dir", "A", 1), ("learn", "A", 2), ("tick", LEARNT_TIMER)])
    # a re-pointed entry at the same timestamp, then lock -> learnt -> expired
    @example(ops=[("admit", "A", 1, 0), ("tick", HALF), ("admit", "A", 2, 1),
                  ("learn", "B", 1), ("tick", 0.0), ("tick", 2 * LEARNT_TIMER)])
    # ticks at exactly the lock deadline: learnt there, refreshable and re-pointable
    @example(ops=[("admit", "A", 1, 0), ("tick", LOCK_TIMER), ("refresh", "A"),
                  ("admit", "A", 2, 1), ("tick", LOCK_TIMER), ("admit", "A", 3, 2)])
    # a reply learns a locked entry early, keeping its stamp; at the same
    # instant a copy of that race is refused and a fresher race re-points it
    @example(ops=[("admit", "A", 1, 0), ("tick", 0.4 * LOCK_TIMER), ("learn", "A", 2),
                  ("admit", "A", 3, 0), ("admit", "A", 3, 1), ("tick", LEARNT_TIMER)])
    # lock -> deletion in one tick
    @example(ops=[("admit", "A", 1, 0), ("learn", "B", 2),
                  ("tick", LOCK_TIMER + LEARNT_TIMER)])
    def test_matches_full_scan(self, ops):
        bs = BridgePathBridge(1, ports=PORTS + ["H"], host_ports=["H"])
        ref = TwoStateTables()
        now = 0.0
        for op in ops:
            pushed = len(bs.expiry)
            if op[0] == "tick":
                now += op[1]
                bs.tick(now)
                ref.tick(now)
                assert len(bs.expiry) <= pushed  # a tick pushes nothing
            elif op[0] == "admit":
                admitted = bs._race_admit(op[1], op[2], now, op[3])
                assert admitted == ref.race_admit(op[1], op[2], now, op[3])
                assert len(bs.expiry) == pushed + admitted  # one item per admission
            elif op[0] == "learn":
                bs._learn(op[1], op[2], now)
                ref.learn(op[1], op[2], now)
            elif op[0] == "refresh":
                e = bs.entries.get(op[1])
                if e is not None:
                    bs._refresh(e, now)
                ref.refresh(op[1], now)
            else:
                bs._dir_learn(op[1], op[2], now)
                ref.dir_learn(op[1], op[2], now)
            assert snapshot(bs, now) == ref.snapshot()

    def test_lock_to_expired_in_one_tick(self):
        bs = ArpPathBridge(2, ports=[1, 3])
        bs.handle(1, req("A", "ip-B", race=1), now=0.0)
        bs.tick(LOCK_TIMER + LEARNT_TIMER + 1.0)
        assert bs.entries == {} and bs.expiry == []

    @pytest.mark.parametrize("cls", [ArpPathBridge, FlowPathBridge, BridgePathBridge])
    def test_an_admission_leaves_one_heap_item_before_and_after_its_lock(self, cls):
        bs = cls(1, ports=[2, "A"], host_ports=["A"])
        bs.handle("A", req("A", "ip-B", race=1), now=0.0)
        [entry] = bs.entries.values()
        assert bs.expiry == [(LOCK_TIMER + LEARNT_TIMER, 0, bs.entries, entry)]
        for now in (0.5 * LOCK_TIMER, LOCK_TIMER, 2 * LOCK_TIMER):
            bs.tick(now)
            assert bs.expiry == [(LOCK_TIMER + LEARNT_TIMER, 0, bs.entries, entry)]
        assert entry.state_at(2 * LOCK_TIMER) == (LEARNT, LOCK_TIMER + LEARNT_TIMER)
