"""Closed-form path-count and table-size estimates for the three protocols.

Path counts per protocol (independent bidirectional paths that can be
created): Flow-Path one per host pair, ARP-Path one per host, Bridge-Path
one per edge bridge.  Table totals depend on the mean path size b and on
the mean extra tree bridges L_e contributed when further sources join an
already-built destination tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import (SHORTEST_ONLY, Topology, TopologyError, available_path_count,
                       bridge_distances)


class ParamError(ValueError):
    pass


@dataclass
class ScalabilityParams:
    H: float  # mean active hosts
    B_E: float  # mean active edge bridges
    b: float = 1.0  # mean bridges on a created path
    L_e: float = 0.0  # mean shared-branch bridges per destination tree

    def __post_init__(self):
        if self.H < 0 or self.B_E < 0 or self.b < 0 or self.L_e < 0:
            raise ParamError("parameters must be nonnegative")
        if self.B_E > self.H:
            raise ParamError("B_E cannot exceed H: every active edge bridge has a host")


def eval_paths(p: ScalabilityParams):
    """(P_FP, P_AP, P_BP): bidirectional paths creatable on average."""
    return p.H * (p.H - 1) / 2, p.H / 2, p.B_E / 2


def eval_tables(p: ScalabilityParams):
    """(T_FP, T_AP, T_BP): mean total table entries network-wide."""
    t_fp = p.H * (p.H - 1) * p.b
    t_ap = p.H * (p.b + p.L_e)
    t_bp = p.B_E * (p.b + p.L_e)
    return t_fp, t_ap, t_bp


def eval_ratios(p: ScalabilityParams):
    """(R_FA, R_AB) table-size ratios; requires nonzero denominators."""
    _, t_ap, t_bp = eval_tables(p)
    if t_ap <= 0 or t_bp <= 0:
        raise ParamError("ratios need T_AP > 0 and T_BP > 0")
    r_fa = (p.H - 1) * p.b / (p.b + p.L_e)
    r_ab = p.H / p.B_E
    return r_fa, r_ab


def lex_shortest_path(t: Topology, src, dst):
    """The lexicographically smallest minimum-hop bridge path."""
    if src not in t.adj:
        raise TopologyError("unknown bridge id %r" % (src,))
    return _lex_descent(t, bridge_distances(t, dst), src, dst)


def _lex_descent(t: Topology, dist, src, dst):
    """The lex-min shortest path from src down dist, the hop distances to dst:
    each step takes the smallest neighbor one hop nearer."""
    path = [src]
    cur = src
    while cur != dst:
        nearer = dist[cur] - 1
        cur = next(nb for nb in t.bridge_neighbors(cur) if dist[nb] == nearer)
        path.append(cur)
    return path


def _path_params(t: Topology):
    """grid_params' (B_E, b, L_e), which depend on t alone: one BFS per
    destination corner, whose distances every source's path descends."""
    corners = t.edge_bridges()
    if not corners:
        raise ParamError("grid_params needs a topology with hosts")
    if len(corners) == 1:  # degenerate n=1 lattice
        return 1, 1.0, 0.0

    lens = []
    tree_overhead = []
    for dst in corners:
        dist = bridge_distances(t, dst)
        union = set()
        to_dst = []
        for src in corners:
            if src == dst:
                continue
            path = _lex_descent(t, dist, src, dst)
            to_dst.append(len(path))
            union.update(path)
            lens.append(len(path))
        tree_overhead.append(len(union) - sum(to_dst) / len(to_dst))
    b = sum(lens) / len(lens)
    L_e = sum(tree_overhead) / len(tree_overhead)
    return len(corners), b, L_e


def _spread_hosts(grid, H) -> ScalabilityParams:
    """The parameters of H hosts spread evenly over the B_E corners of grid,
    a _path_params result."""
    B_E, b, L_e = grid
    if B_E > 1 and H % B_E != 0:
        raise ParamError("H must spread evenly over the %d corners" % B_E)
    return ScalabilityParams(H=H, B_E=B_E, b=b, L_e=L_e)


def grid_params(t: Topology, H) -> ScalabilityParams:
    """Derive (b, L_e) over the edge bridges, a generated grid's corners.

    b averages the lex-min shortest path size over all ordered corner
    pairs; L_e is the mean tree overhead: for each destination corner, the
    union of the incoming paths minus the mean incoming path size.
    """
    return _spread_hosts(_path_params(t), H)


def sweep_rows(grid_factory, n_values, hosts_values, criterion=SHORTEST_ONLY):
    """CSV-ready rows: n, H, P_*, T_*, R_*, path count between opposite corners."""
    for n in n_values:
        t = grid_factory(n)
        psi = available_path_count(t, criterion) if len(t.edge_bridges()) >= 2 else 1
        grid = _path_params(t)
        for H in hosts_values:
            p = _spread_hosts(grid, H)
            p_fp, p_ap, p_bp = eval_paths(p)
            t_fp, t_ap, t_bp = eval_tables(p)
            r_fa, r_ab = eval_ratios(p)
            yield {
                "n": n, "H": H, "b": p.b, "L_e": p.L_e,
                "P_FP": p_fp, "P_AP": p_ap, "P_BP": p_bp,
                "T_FP": t_fp, "T_AP": t_ap, "T_BP": t_bp,
                "R_FA": r_fa, "R_AB": r_ab, "psi_paths": psi,
            }
