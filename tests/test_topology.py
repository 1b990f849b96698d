"""Topology generators, path enumeration and serialization."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allpath import topology
from allpath.scalability import lex_shortest_path
from allpath.topology import (
    SHORTEST_ONLY,
    SHORTEST_PLUS_ONE,
    Link,
    Topology,
    TopologyError,
    available_path_count,
    count_shortest_paths,
    enumerate_paths,
    make_crossed_grid,
    make_diamond,
    make_line,
    make_simple_grid,
)


def validate_path(t, path):
    """Oracle for enumerate_paths: a path is valid if it is simple and every
    consecutive pair of bridges is linked."""
    if len(set(path)) != len(path):
        return False
    return all(Link(a, b).name in t.links for a, b in zip(path, path[1:]))


class TestGenerators:
    def test_simple_grid_counts(self):
        t = make_simple_grid(3)
        assert len(t.bridges) == 9
        bridge_links = [ln for ln in t.links.values() if ln.a in t.adj and ln.b in t.adj]
        assert len(bridge_links) == 12
        assert t.edge_bridges() == [1, 3, 7, 9]

    def test_simple_grid_n4(self):
        t = make_simple_grid(4)
        assert len(t.bridges) == 16
        bridge_links = [ln for ln in t.links.values() if ln.a in t.adj and ln.b in t.adj]
        assert len(bridge_links) == 24  # 2*n*(n-1)

    def test_simple_grid_n1_degenerate(self):
        t = make_simple_grid(1)
        assert t.bridges == [1]
        assert t.edge_bridges() == [1]

    def test_simple_grid_rejects_n0(self):
        with pytest.raises(TopologyError):
            make_simple_grid(0)

    def test_crossed_grid_counts(self):
        t = make_crossed_grid(3)
        bridge_links = [ln for ln in t.links.values() if ln.a in t.adj and ln.b in t.adj]
        assert len(bridge_links) == 20  # 12 lattice + 2*(n-1)^2 diagonals

    def test_crossed_grid_n2(self):
        t = make_crossed_grid(2)
        bridge_links = [ln for ln in t.links.values() if ln.a in t.adj and ln.b in t.adj]
        assert len(t.bridges) == 4
        assert len(bridge_links) == 6

    def test_crossed_grid_rejects_small_n(self):
        with pytest.raises(TopologyError):
            make_crossed_grid(1)

    def test_corner_hosts_even(self):
        t = make_simple_grid(3, hosts_per_corner=2)
        assert len(t.hosts) == 8
        per_corner = {c: len(t.hosts_at(c)) for c in (1, 3, 7, 9)}
        assert per_corner == {1: 2, 3: 2, 7: 2, 9: 2}

    def test_line_and_diamond(self):
        line = make_line(3)
        assert line.bridges == [1, 2, 3]
        assert line.hosts == {"A": 1, "B": 3}
        d = make_diamond()
        assert d.bridges == [1, 2, 3, 4]
        assert "1-2" in d.links
        assert "2-4" not in d.links

    def test_line_rejects_no_bridges(self):
        with pytest.raises(TopologyError, match="^line requires at least one bridge$"):
            make_line(0)


class TestDerivedViews:
    def test_bridge_neighbors_is_one_sorted_tuple(self):
        t = make_crossed_grid(4)
        for b in t.bridges:
            nbs = t.bridge_neighbors(b)
            assert isinstance(nbs, tuple)
            assert nbs == tuple(sorted(t.adj[b]))
            assert t.bridge_neighbors(b) is nbs

    def test_link_name_is_set_at_construction(self):
        assert Link(2, 10).name == "10-2"
        for ln, name in [(Link(2, 10), "10-2"), (Link("h1", 3), "3-h1"), (Link(3, "A"), "3-A")]:
            assert vars(ln)["name"] == name


class TestLinkValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 1)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 2, bandwidth_bps=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 2, prop_delay_s=-1e-6)

    @pytest.mark.parametrize("params", [{"bandwidth_bps": math.inf},
                                        {"bandwidth_bps": math.nan},
                                        {"prop_delay_s": math.inf},
                                        {"prop_delay_s": math.nan}])
    def test_non_finite_link_parameters_rejected(self, params):
        with pytest.raises(TopologyError, match="must be finite"):
            Link(1, 2, **params)

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            Topology([1, 2, 3], [Link(1, 2)], {})

    def test_duplicate_link_rejected(self):
        # a repeated pair of ends repeats the link's name
        with pytest.raises(TopologyError, match="two links are named '1-2'"):
            Topology([1, 2], [Link(1, 2), Link(2, 1)], {})
        with pytest.raises(TopologyError, match="two links are named '1-A'"):
            Topology([1, 2], [Link(1, 2), Link("A", 1), Link(1, "A")], {"A": 1})

    def test_host_named_like_a_bridge_rejected(self):
        # host "2"'s link to bridge 1 and the bridge link 1-2 would share
        # the name 1-2, and table ports "2" would be ambiguous
        with pytest.raises(TopologyError, match="host '2' has the name of bridge 2"):
            Topology([1, 2], [Link(1, 2)], {"2": 1, "B": 2})
        with pytest.raises(TopologyError, match="host '7' has the name of bridge 7"):
            make_line(7, hosts={"A": 1, "7": 3})
        assert sorted(Topology([1, 2], [Link(1, 2)], {"3": 1, "B": 2}).hosts) == ["3", "B"]

    def test_colliding_link_names_rejected(self):
        # host "2-3" on bridge 1 and host "1-2" on bridge 3 both read 1-2-3
        with pytest.raises(TopologyError, match="two links are named '1-2-3'"):
            make_line(3, hosts={"2-3": 1, "1-2": 3})
        line = make_line(3, hosts={"2-3": 1, "B": 3})
        assert sorted(ln.name for ln in line.links.values()) == ["1-2", "1-2-3", "2-3", "3-B"]


class TestPathEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 20), (5, 70)])
    def test_simple_grid_shortest_counts(self, n, count):
        # corner-to-corner shortest paths = C(2(n-1), n-1)
        t = make_simple_grid(n)
        paths = enumerate_paths(t, 1, n * n, SHORTEST_ONLY)
        assert len(paths) == count
        assert count == math.comb(2 * (n - 1), n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dag_count_matches_enumeration(self, n):
        t = make_simple_grid(n)
        paths = enumerate_paths(t, 1, n * n, SHORTEST_ONLY)
        assert count_shortest_paths(t, 1, n * n) == len(paths)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_crossed_grid_unique_shortest(self, n):
        t = make_crossed_grid(n)
        paths = enumerate_paths(t, 1, n * n, SHORTEST_ONLY)
        assert len(paths) == 1
        # the unique shortest path is the main diagonal: n bridges, n-1 hops
        assert len(paths[0]) == n
        assert paths[0][0] == 1 and paths[0][-1] == n * n

    def test_crossed_n3_diagonal(self):
        t = make_crossed_grid(3)
        paths = enumerate_paths(t, 1, 9, SHORTEST_ONLY)
        assert paths == [[1, 5, 9]]

    def test_shortest_plus_one_superset(self):
        t = make_crossed_grid(3)
        short = enumerate_paths(t, 1, 9, SHORTEST_ONLY)
        plus = enumerate_paths(t, 1, 9, SHORTEST_PLUS_ONE)
        assert set(map(tuple, short)) <= set(map(tuple, plus))
        assert len(plus) > len(short)
        lens = {len(p) for p in plus}
        assert lens <= {3, 4}  # shortest has 3 bridges, plus-one has 4

    def test_paths_simple_and_valid(self):
        t = make_simple_grid(4)
        for path in enumerate_paths(t, 1, 16, SHORTEST_ONLY):
            assert validate_path(t, path)

    def test_enumeration_stable(self):
        t = make_simple_grid(3)
        a = enumerate_paths(t, 1, 9, SHORTEST_ONLY)
        b = enumerate_paths(t, 1, 9, SHORTEST_ONLY)
        assert a == b == sorted(a)

    def test_errors(self):
        t = make_simple_grid(2)
        with pytest.raises(TopologyError):
            enumerate_paths(t, 1, 1)
        with pytest.raises(TopologyError):
            enumerate_paths(t, 1, 99)
        with pytest.raises(TopologyError):
            enumerate_paths(t, 1, 4, "bogus")

    @pytest.mark.parametrize("call, src, dst", [(lex_shortest_path, 1, 99),
                                                (lex_shortest_path, 99, 1),
                                                (count_shortest_paths, 1, 99),
                                                (count_shortest_paths, 99, 1)])
    def test_unknown_bridge_id(self, call, src, dst):
        with pytest.raises(TopologyError, match="^unknown bridge id 99$"):
            call(make_simple_grid(3), src, dst)

    @pytest.mark.parametrize("t", [make_simple_grid(4), make_crossed_grid(4), make_diamond()],
                             ids=["simple", "crossed", "diamond"])
    def test_count_matches_enumeration_for_every_pair(self, t):
        for src in t.bridges:
            for dst in t.bridges:
                if src != dst:
                    assert (count_shortest_paths(t, src, dst)
                            == len(enumerate_paths(t, src, dst))), (src, dst)

    def test_count_needs_no_recursion(self):
        # about 1,200 nested calls overflowed Python's default recursion limit
        assert count_shortest_paths(make_line(1200), 1, 1200) == 1


class TestAvailablePathCount:
    def test_simple_grids(self):
        assert available_path_count(make_simple_grid(2)) == 2
        assert available_path_count(make_simple_grid(3)) == 6

    def test_crossed_n2_shortest_only(self):
        assert available_path_count(make_crossed_grid(2), SHORTEST_ONLY) == 1

    def test_crossed_plus_one_matches_enumeration(self):
        t = make_crossed_grid(3)
        n = available_path_count(t, SHORTEST_PLUS_ONE)
        assert n == len(enumerate_paths(t, 1, 9, SHORTEST_PLUS_ONE))

    def test_one_edge_bridge_rejected(self):
        with pytest.raises(TopologyError, match="^need at least two edge bridges$"):
            available_path_count(make_line(3, hosts={"A": 1, "B": 1}))

    def test_long_line(self):
        assert available_path_count(make_line(1200)) == 1


class TestSerialization:
    def test_round_trip(self):
        t = make_crossed_grid(3, hosts_per_corner=2)
        back = Topology.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
        assert back.bridges == t.bridges
        assert back.hosts == t.hosts
        assert set(back.links) == set(t.links)
        assert back.to_json_dict() == t.to_json_dict()
        assert sorted(t.to_json_dict()) == ["bridges", "hosts", "links"]

    def test_validate_path(self):
        t = make_simple_grid(2)
        assert validate_path(t, [1, 2, 4])
        assert not validate_path(t, [1, 4])  # no diagonal link
        assert not validate_path(t, [1, 2, 1])  # repeated bridge


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=5),
       which=st.sampled_from(["simple", "crossed"]))
def test_property_every_path_is_simple_and_minimal(n, which):
    t = make_simple_grid(n) if which == "simple" else make_crossed_grid(n)
    dist = topology.bridge_distances(t, n * n)
    paths = enumerate_paths(t, 1, n * n, SHORTEST_ONLY)
    assert len(paths) >= 1
    for path in paths:
        assert validate_path(t, path)
        assert path[0] == 1 and path[-1] == n * n
        assert len(path) - 1 == dist[1]
