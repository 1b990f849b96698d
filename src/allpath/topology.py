"""Bridged network topologies: grid generators, path enumeration, JSON I/O.

Bridges are integers, hosts are strings.  A bridge is an *edge* bridge iff
at least one host attaches to it; all other bridges are *core*.  Grid
bridges are numbered row-major starting at 1, so the opposite-corner pair
of an n x n grid is (1, n**2).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

BridgeId = int
HostId = str

SHORTEST_ONLY = "shortest_only"
SHORTEST_PLUS_ONE = "shortest_plus_one"

DEFAULT_BANDWIDTH_BPS = 1e9
DEFAULT_PROP_DELAY_S = 1e-6


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Link:
    a: object  # BridgeId or HostId
    b: object
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    prop_delay_s: float = DEFAULT_PROP_DELAY_S

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError("self-loop link %r" % (self.a,))
        if not 0 < self.bandwidth_bps < math.inf:
            raise TopologyError("bandwidth must be finite and positive, not %r"
                                % (self.bandwidth_bps,))
        if not 0 <= self.prop_delay_s < math.inf:
            raise TopologyError("propagation delay must be finite and nonnegative, not %r"
                                % (self.prop_delay_s,))
        # the link's identity and report.csv name: its two ends' ids as
        # strings, sorted and joined by "-"
        object.__setattr__(self, "name", "-".join(sorted(map(str, (self.a, self.b)))))


class Topology:
    """Immutable-after-construction bridge/host graph: nothing changes
    bridges, links, adj or hosts once it is built, so the sorted neighbor
    tuples are computed once."""

    def __init__(self, bridges, links, hosts):
        self.bridges = sorted(set(bridges))
        self.links = {}  # Link.name -> Link
        self.adj = {b: {} for b in self.bridges}  # bridge -> neighbor bridge -> Link
        self.hosts = dict(hosts)  # host id -> bridge id
        self.host_links = {}  # host id -> Link

        bridge_set = set(self.bridges)
        # link names and table ports are stringified ids, so a host id must
        # not read as a bridge id
        bridge_names = {str(b): b for b in self.bridges}
        for host, bridge in self.hosts.items():
            if host in bridge_names:
                raise TopologyError("host %r has the name of bridge %r"
                                    % (host, bridge_names[host]))
            if bridge not in bridge_set:
                raise TopologyError("host %r attaches to unknown bridge %r" % (host, bridge))
        for ln in links:
            ends = [ln.a, ln.b]
            n_bridges = sum(1 for e in ends if e in bridge_set)
            if n_bridges == 2:
                self._add_link(ln)
                self.adj[ln.a][ln.b] = ln
                self.adj[ln.b][ln.a] = ln
            elif n_bridges == 1:
                host, bridge = (ln.a, ln.b) if ln.b in bridge_set else (ln.b, ln.a)
                if host not in self.hosts:
                    raise TopologyError("link to unknown host %r" % (host,))
                # a host has one link, to its own bridge; a second link to
                # that bridge repeats the pair, and so the name, of the first
                if bridge != self.hosts[host]:
                    raise TopologyError("host %r attaches to bridge %r, but a link joins it "
                                        "to bridge %r" % (host, self.hosts[host], bridge))
                self._add_link(ln)
                self.host_links[host] = ln
            else:
                raise TopologyError("link endpoints %r not in topology" % (ends,))

        for host, bridge in self.hosts.items():
            if host not in self.host_links:
                ln = Link(host, bridge)
                self._add_link(ln)
                self.host_links[host] = ln
        self._check_connected()
        self._neighbors = {b: tuple(sorted(nbs)) for b, nbs in self.adj.items()}

    def _add_link(self, ln):
        # one name per link: a repeated pair of ends repeats the name too
        if ln.name in self.links:
            raise TopologyError("two links are named %r" % (ln.name,))
        self.links[ln.name] = ln

    # -- basic queries ----------------------------------------------------

    def edge_bridges(self):
        return sorted({b for b in self.hosts.values()})

    def hosts_at(self, bridge):
        return sorted(h for h, b in self.hosts.items() if b == bridge)

    def bridge_neighbors(self, bridge):
        return self._neighbors[bridge]

    def _check_connected(self):
        if not self.bridges:
            raise TopologyError("topology has no bridges")
        seen = {self.bridges[0]}
        stack = [self.bridges[0]]
        while stack:
            for nb in self.adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.bridges):
            raise TopologyError("bridge graph is not connected")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        return {
            "bridges": [{"id": b} for b in self.bridges],
            "links": [
                {
                    "a": ln.a,
                    "b": ln.b,
                    "bandwidth_bps": ln.bandwidth_bps,
                    "prop_delay_s": ln.prop_delay_s,
                }
                for _, ln in sorted(self.links.items())
                if ln.a in self.adj and ln.b in self.adj
            ],
            "hosts": [
                {
                    "id": h,
                    "bridge": b,
                    "bandwidth_bps": self.host_links[h].bandwidth_bps,
                    "prop_delay_s": self.host_links[h].prop_delay_s,
                }
                for h, b in sorted(self.hosts.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc):
        """The topology of a to_json_dict document.  A field that is missing
        or of the wrong JSON type raises ValueError naming the field; other
        fields are ignored."""
        json_typed("topology", doc, OBJECT)
        bridges = [json_field(where, b, "id", INT)
                   for where, b in json_objects("topology", doc, "bridges")]
        hosts = {}
        links = []
        for where, l in json_objects("topology", doc, "links"):
            links.append(Link(json_field(where, l, "a", NODE), json_field(where, l, "b", NODE),
                              *_json_link_params(where, l)))
        for where, h in json_objects("topology", doc, "hosts"):
            host, bridge = json_field(where, h, "id", STR), json_field(where, h, "bridge", INT)
            if host in hosts:  # else the later entry would re-home the host
                raise TopologyError("%s.id repeats host %s" % (where, json.dumps(host)))
            hosts[host] = bridge
            links.append(Link(host, bridge, *_json_link_params(where, h)))
        return cls(bridges, links, hosts)


# JSON field kinds: (Python types, name in errors).  JSON true and false are
# no numbers, although Python's bool is an int.
OBJECT = (dict, "an object")
LIST = (list, "a list")
INT = (int, "an integer")
STR = (str, "a string")
NODE = ((int, str), "an integer or a string")
NUMBER = ((int, float), "a number")
OPTIONAL_NUMBER = ((int, float, type(None)), "a number")
NAME_OR_OBJECT = ((str, dict), "a name or an object")
_REQUIRED = object()


def json_typed(where, value, kind):
    """The one checker of the JSON documents allpath reads (topology,
    scenario, manifest).  json_typed returns value if it is of the kind;
    json_field returns obj[key] of the kind, or default when the key is
    missing and a default is given; json_objects yields (name, item) for
    each object in the list obj[key].  where names the value, or obj, in
    the ValueError raised for a missing field or a wrong JSON type:
    "scenario.duration must be a number, not \"5\"", "manifest has no params".
    """
    types, what = kind
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError("%s must be %s, not %s" % (where, what, json.dumps(value)))
    return value


def json_field(where, obj, key, kind, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError("%s has no %s" % (where, key))
        return default
    return json_typed("%s.%s" % (where, key), obj[key], kind)


def json_objects(where, obj, key):
    items = json_field(where, obj, key, LIST)
    for i, item in enumerate(items):
        name = "%s.%s[%d]" % (where, key, i)
        yield name, json_typed(name, item, OBJECT)


def _json_link_params(where, obj):
    return (json_field(where, obj, "bandwidth_bps", NUMBER, DEFAULT_BANDWIDTH_BPS),
            json_field(where, obj, "prop_delay_s", NUMBER, DEFAULT_PROP_DELAY_S))


# -- generators -----------------------------------------------------------


def _corner_hosts(n, hosts_per_corner):
    hosts = {}
    corners = [1] if n == 1 else [1, n, n * n - n + 1, n * n]
    for c in corners:
        for k in range(hosts_per_corner):
            hosts["h%d_%d" % (c, k)] = c
    return hosts


def _grid(n, hosts_per_corner, crossed):
    """The n x n lattice, row-major, with hosts at its corners; crossed adds
    both diagonals of every unit cell after the lattice links."""
    links = []
    for r in range(n):
        for c in range(n):
            b = r * n + c + 1
            if c + 1 < n:
                links.append(Link(b, b + 1))
            if r + 1 < n:
                links.append(Link(b, b + n))
    if crossed:
        for r in range(n - 1):
            for c in range(n - 1):
                b = r * n + c + 1
                links.append(Link(b, b + n + 1))
                links.append(Link(b + 1, b + n))
    return Topology(range(1, n * n + 1), links, _corner_hosts(n, hosts_per_corner))


def make_simple_grid(n, hosts_per_corner=1):
    """n x n lattice with horizontal/vertical links; corner bridges are edge."""
    if n < 1:
        raise TopologyError("simple grid requires n >= 1")
    return _grid(n, hosts_per_corner, crossed=False)


def make_crossed_grid(n, hosts_per_corner=1):
    """Simple grid plus both diagonals in every unit cell."""
    if n < 2:
        raise TopologyError("crossed grid requires n >= 2")
    return _grid(n, hosts_per_corner, crossed=True)


def make_line(n_bridges, hosts=None):
    """Chain of bridges 1..n.  hosts maps host id -> bridge (default one per end)."""
    if n_bridges < 1:
        raise TopologyError("line requires at least one bridge")
    bridges = list(range(1, n_bridges + 1))
    links = [Link(b, b + 1) for b in range(1, n_bridges)]
    if hosts is None:
        hosts = {"A": 1, "B": n_bridges}
    return Topology(bridges, links, hosts)


def make_diamond(hosts=None):
    """Four bridges, two disjoint branches 1-2-3 and 1-4-3."""
    links = [Link(1, 2), Link(2, 3), Link(1, 4), Link(4, 3)]
    if hosts is None:
        hosts = {"A": 1, "B": 3}
    return Topology([1, 2, 3, 4], links, hosts)


# -- path enumeration -----------------------------------------------------


def bridge_distances(t: Topology, origin: BridgeId):
    """Hop distance from every bridge to origin (BFS)."""
    if origin not in t.adj:
        raise TopologyError("unknown bridge id %r" % (origin,))
    dist = {origin: 0}
    q = deque([origin])
    while q:
        v = q.popleft()
        for nb in t.bridge_neighbors(v):
            if nb not in dist:
                dist[nb] = dist[v] + 1
                q.append(nb)
    return dist


def enumerate_paths(t: Topology, src: BridgeId, dst: BridgeId, criterion=SHORTEST_ONLY):
    """All simple bridge paths from src to dst within the hop bound.

    shortest_only keeps minimum-hop paths; shortest_plus_one additionally
    keeps simple paths with exactly one extra hop.  Exhaustive bounded DFS,
    pruned with the distance-to-target lower bound; returns the list of
    paths sorted lexicographically, so enumeration order is stable.
    """
    if src not in t.adj or dst not in t.adj:
        raise TopologyError("unknown bridge id in (%r, %r)" % (src, dst))
    if src == dst:
        raise TopologyError("src and dst must differ")
    dist = bridge_distances(t, dst)
    if criterion not in (SHORTEST_ONLY, SHORTEST_PLUS_ONE):
        raise TopologyError("unknown criterion %r" % (criterion,))
    budget = dist[src] + (1 if criterion == SHORTEST_PLUS_ONE else 0)

    paths = []
    path = [src]
    on_path = {src}

    def dfs(v, hops_left):
        if v == dst:
            paths.append(list(path))
            return
        for nb in t.bridge_neighbors(v):
            if nb in on_path:
                continue
            if dist[nb] > hops_left - 1:
                continue
            path.append(nb)
            on_path.add(nb)
            dfs(nb, hops_left - 1)
            path.pop()
            on_path.remove(nb)

    dfs(src, budget)
    paths.sort()
    return paths


def count_shortest_paths(t: Topology, src: BridgeId, dst: BridgeId) -> int:
    """Number of minimum-hop paths, counted layer by layer outwards from dst
    (no enumeration, no recursion)."""
    if src not in t.adj:
        raise TopologyError("unknown bridge id %r" % (src,))
    dist = bridge_distances(t, dst)
    # dist is in BFS order: each bridge comes after every bridge nearer dst
    counts = {dst: 1}
    for v, d in dist.items():
        if d:
            counts[v] = sum(counts[nb] for nb in t.bridge_neighbors(v) if dist[nb] == d - 1)
    return counts[src]


def available_path_count(t: Topology, criterion=SHORTEST_ONLY) -> int:
    """Path count between the first and last edge bridge: a grid's opposite
    corners 1 and n**2."""
    edges = t.edge_bridges()
    if len(edges) < 2:
        raise TopologyError("need at least two edge bridges")
    src, dst = edges[0], edges[-1]
    if criterion == SHORTEST_ONLY:
        return count_shortest_paths(t, src, dst)
    return len(enumerate_paths(t, src, dst, criterion))
