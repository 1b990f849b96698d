"""Closed-form path-count and table-size equations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allpath import scalability, topology
from allpath.scalability import (
    ParamError,
    ScalabilityParams,
    eval_paths,
    eval_ratios,
    eval_tables,
    grid_params,
    lex_shortest_path,
    sweep_rows,
)
from allpath.topology import (
    SHORTEST_ONLY,
    SHORTEST_PLUS_ONE,
    Topology,
    available_path_count,
    make_crossed_grid,
    make_diamond,
    make_simple_grid,
)


class TestParams:
    def test_rejects_more_edges_than_hosts(self):
        with pytest.raises(ParamError):
            ScalabilityParams(H=2, B_E=4)

    def test_rejects_negative(self):
        with pytest.raises(ParamError):
            ScalabilityParams(H=-1, B_E=0)


class TestEquations:
    def test_paths_h4(self):
        assert eval_paths(ScalabilityParams(H=4, B_E=4)) == (6, 2, 2)

    def test_paths_h12(self):
        assert eval_paths(ScalabilityParams(H=12, B_E=4)) == (66, 6, 2)

    def test_paths_h1(self):
        p_fp, _, _ = eval_paths(ScalabilityParams(H=1, B_E=1))
        assert p_fp == 0

    def test_tables_line_case(self):
        p = ScalabilityParams(H=2, B_E=2, b=3, L_e=0)
        assert eval_tables(p) == (6, 6, 6)

    def test_tables_h0(self):
        assert eval_tables(ScalabilityParams(H=0, B_E=0, b=0, L_e=0)) == (0, 0, 0)

    def test_table_ratio_independent_of_shape(self):
        for b, L_e in [(3, 0.5), (5, 2), (7.2, 1.1)]:
            p = ScalabilityParams(H=12, B_E=4, b=b, L_e=L_e)
            _, t_ap, t_bp = eval_tables(p)
            assert t_ap / t_bp == pytest.approx(3)

    def test_ratio_no_shared_branches(self):
        r_fa, _ = eval_ratios(ScalabilityParams(H=8, B_E=4, b=4, L_e=0))
        assert r_fa == 7  # H - 1

    def test_ratio_r_ab(self):
        _, r_ab = eval_ratios(ScalabilityParams(H=8, B_E=4, b=4, L_e=1))
        assert r_ab == 2

    def test_ratio_guards(self):
        with pytest.raises(ParamError):
            eval_ratios(ScalabilityParams(H=0, B_E=0, b=1, L_e=0))


@settings(max_examples=100, deadline=None)
@given(H=st.integers(min_value=2, max_value=500),
       B_E=st.integers(min_value=1, max_value=500),
       b=st.floats(min_value=1, max_value=50),
       L_e=st.floats(min_value=0, max_value=50))
def test_property_ratio_algebra(H, B_E, b, L_e):
    B_E = min(B_E, H)
    p = ScalabilityParams(H=H, B_E=B_E, b=b, L_e=L_e)
    t_fp, t_ap, t_bp = eval_tables(p)
    r_fa, r_ab = eval_ratios(p)
    assert r_fa * t_ap == pytest.approx(t_fp)
    assert r_ab * t_bp == pytest.approx(t_ap)
    p_fp, p_ap, p_bp = eval_paths(p)
    assert p_fp >= p_ap >= p_bp
    assert r_ab >= 1


class TestGridParams:
    def test_lex_shortest_path_sizes(self):
        t = make_simple_grid(2)
        assert lex_shortest_path(t, 1, 4) == [1, 2, 4]  # 3 bridges
        t3 = make_simple_grid(3)
        assert len(lex_shortest_path(t3, 1, 9)) == 5  # opposite corners

    def test_n1_degenerate(self):
        p = grid_params(make_simple_grid(1), H=4)
        assert (p.b, p.L_e) == (1.0, 0.0)

    def test_requires_even_spread(self):
        with pytest.raises(ParamError):
            grid_params(make_simple_grid(3), H=5)

    def test_requires_hosts(self):
        with pytest.raises(ParamError, match="needs a topology with hosts"):
            grid_params(make_simple_grid(3, hosts_per_corner=0), H=4)

    def test_any_topology_with_hosts(self):
        # the diamond's edge bridges 1 and 3 join over the lex-min path 1-2-3
        p = grid_params(make_diamond(), H=4)
        assert (p.B_E, p.b, p.L_e) == (2, 3.0, 0.0)

    @pytest.mark.parametrize("make, n", [(make_simple_grid, n) for n in range(1, 7)]
                             + [(make_crossed_grid, n) for n in range(2, 7)])
    def test_a_grid_is_its_bridges_links_and_hosts(self, make, n):
        # the corner convention needs no record beside the graph: the same
        # bridges, links and hosts give the same path counts and parameters
        t = make(n)
        bare = Topology(t.bridges, list(t.links.values()), t.hosts)
        assert grid_params(bare, H=12) == grid_params(t, H=12)
        if n == 1:
            return  # one edge bridge: no pair to count paths between
        for criterion in (SHORTEST_ONLY, SHORTEST_PLUS_ONE):
            assert available_path_count(bare, criterion) == available_path_count(t, criterion)
        want = math.comb(2 * (n - 1), n - 1) if make is make_simple_grid else 1
        assert available_path_count(bare) == want

    def test_r_fa_band_and_decrease(self):
        prev = None
        for n in range(2, 12):
            p = grid_params(make_simple_grid(n), H=12)
            r_fa, _ = eval_ratios(p)
            if prev is not None:
                assert r_fa < prev
            prev = r_fa
        assert 3.5 <= prev <= 5.5

    def test_r_ab_levels(self):
        for n in (2, 4):
            for grid in (make_simple_grid, make_crossed_grid):
                for H, want in [(4, 1), (8, 2), (12, 3)]:
                    _, r_ab = eval_ratios(grid_params(grid(n), H=H))
                    assert r_ab == want


class TestSweep:
    def test_rows_shape(self):
        rows = list(sweep_rows(make_simple_grid, [2, 3], [4, 8]))
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {2, 3}
        for r in rows:
            assert r["psi_paths"] >= 1
            assert r["T_FP"] >= r["T_AP"] >= r["T_BP"]

    @pytest.mark.parametrize("make, criterion", [(make_simple_grid, SHORTEST_ONLY),
                                                 (make_crossed_grid, SHORTEST_PLUS_ONE)])
    def test_one_bfs_per_destination_corner(self, monkeypatch, make, criterion):
        # b and L_e depend on the grid alone: each of the 11 grids takes one
        # BFS per destination corner and one for its path count, whatever
        # the number of host counts
        calls = []
        real = topology.bridge_distances

        def counted(t, origin):
            calls.append(origin)
            return real(t, origin)

        monkeypatch.setattr(topology, "bridge_distances", counted)
        monkeypatch.setattr(scalability, "bridge_distances", counted)
        counts = []
        for hosts in ([4], [4, 8, 12]):
            calls.clear()
            rows = list(sweep_rows(make, range(2, 13), hosts, criterion))
            assert len(rows) == 11 * len(hosts)
            counts.append(len(calls))
        assert counts == [55, 55]
