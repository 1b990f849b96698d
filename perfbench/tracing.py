"""Spans around the public entry points of each allpath layer.

The tracer patches functions and methods of the imported package from
outside (no source edits).  Each call becomes one span: name, start, end,
parent span and an optional value taken from the call's result.  Spans stay
in memory for one pass and are reduced to the per-layer metrics by
``layer_metrics``.  A layer's self time is its spans' durations minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

CLI = {"cli.main"}
TOPO_BUILD = {"topology.make_simple_grid", "topology.make_crossed_grid",
              "topology.Topology.from_json_dict"}
TOPO_PATHS = {"topology.available_path_count", "topology.enumerate_paths",
              "topology.count_shortest_paths"}
HANDLE = {"protocol.ArpPathBridge.handle", "protocol.FlowPathBridge.handle",
          "protocol.BridgePathBridge.handle"}
TICK = {"protocol.BridgeState.tick", "protocol.BridgePathBridge.tick"}
COUNT_TABLES = {"protocol.count_table_entries"}
PROTOCOL = HANDLE | TICK | COUNT_TABLES
ENGINE_RUN = {"simnet.Engine.run"}
FLUID = {"simnet.Engine._fluid_recompute"}
TO_JSON = {"simnet.SimReport.to_json"}
CENSUS = {"simnet.measure_empirical_tables"}
SWEEP = {"scalability.sweep_rows"}
QBD_BUILD = {"qbd.build_generator"}
QBD_SOLVE_DENSE = {"qbd.solve_stationary[dense]"}
QBD_SOLVE_BLOCK = {"qbd.solve_stationary[block_tridiagonal]"}
QBD_DENSE = {"qbd.Generator.dense"}
QBD_GAP = {"qbd.gap_distribution"}
BAL_KERNEL = {"balance.run_replication"}
BAL_SIMULATE = {"balance.simulate"}

PER_LAYER = [
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("topology.build_s", "s"), ("topology.path_count_s", "s"), ("topology.paths", "count"),
    ("protocol.handle_calls", "count"), ("protocol.handle_s", "s"), ("protocol.tick_s", "s"),
    ("protocol.entries_final", "count"), ("protocol.dup_ratio", "1"),
    ("simnet.frames", "count"), ("simnet.frames_per_s", "1/s"),
    ("simnet.engine_self_s", "s"), ("simnet.fluid_recomputes", "count"),
    ("simnet.s_per_recompute", "s"), ("simnet.table_series_rows", "count"),
    ("simnet.link_util_rows", "count"), ("simnet.to_json_s", "s"), ("simnet.census_s", "s"),
    ("scalability.sweep_s", "s"), ("scalability.rows", "count"),
    ("qbd.states", "count"), ("qbd.build_s", "s"), ("qbd.solve_dense_s", "s"),
    ("qbd.solve_block_s", "s"), ("qbd.dense_matrix_s", "s"), ("qbd.dense_matrix_bytes", "B"),
    ("qbd.gap_s", "s"),
    ("balance.replications", "count"), ("balance.arrivals", "count"),
    ("balance.arrivals_per_s", "1/s"), ("balance.replication_s", "s"), ("balance.stats_s", "s"),
]

# Metrics that count work: they must repeat exactly from pass to pass.
EXACT = {name for name, unit in PER_LAYER if unit in ("count", "B")}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, value]
        self._stack = []
        self._restore = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn, value=None):
        """fn wrapped in a span; name may be a function of the call arguments."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kw):
                idx = tracer._open(name(*args, **kw) if callable(name) else name)
                rows = 0
                try:
                    for item in fn(*args, **kw):
                        rows += 1
                        yield item
                finally:
                    tracer.spans[idx][4] = rows
                    tracer._close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = tracer._open(name(*args, **kw) if callable(name) else name)
            try:
                result = fn(*args, **kw)
            finally:
                tracer._close(idx)
            if value is not None:
                tracer.spans[idx][4] = value(result, *args, **kw)
            return result
        return wrapper

    def patch_function(self, module, attr, name, value=None):
        """Replace module.attr in every allpath module that holds the same object."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("allpath"):
                continue
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, name, value=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, value))
        else:
            wrapped = self.wrap(name, raw, value)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, raw))

    def unpatch(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def reset(self):
        self.spans = []
        self._stack = []


def install(tracer, api):
    """Wrap the public entry points of every layer of the imported package."""
    topology, protocol, simnet = api.topology, api.protocol, api.simnet
    qbd, balance, scalability, cli = api.qbd, api.balance, api.scalability, api.cli

    tracer.patch_function(cli, "main", "cli.main")

    tracer.patch_function(topology, "make_simple_grid", "topology.make_simple_grid")
    tracer.patch_function(topology, "make_crossed_grid", "topology.make_crossed_grid")
    tracer.patch_method(topology.Topology, "from_json_dict", "topology.Topology.from_json_dict")
    tracer.patch_function(topology, "available_path_count", "topology.available_path_count",
                          value=lambda r, *a, **k: int(r))
    tracer.patch_function(topology, "enumerate_paths", "topology.enumerate_paths",
                          value=lambda r, *a, **k: len(r))
    tracer.patch_function(topology, "count_shortest_paths", "topology.count_shortest_paths",
                          value=lambda r, *a, **k: int(r))

    for cls in (protocol.ArpPathBridge, protocol.FlowPathBridge, protocol.BridgePathBridge):
        tracer.patch_method(cls, "handle", "protocol.%s.handle" % cls.__name__)
    tracer.patch_method(protocol.BridgeState, "tick", "protocol.BridgeState.tick")
    tracer.patch_method(protocol.BridgePathBridge, "tick", "protocol.BridgePathBridge.tick")
    tracer.patch_function(protocol, "count_table_entries", "protocol.count_table_entries",
                          value=lambda r, *a, **k: r["total"])

    tracer.patch_method(simnet.Engine, "run", "simnet.Engine.run",
                        value=lambda r, *a, **k: _report_counts(r))
    tracer.patch_method(simnet.Engine, "_fluid_recompute", "simnet.Engine._fluid_recompute")
    tracer.patch_method(simnet.SimReport, "to_json", "simnet.SimReport.to_json")
    tracer.patch_function(simnet, "measure_empirical_tables", "simnet.measure_empirical_tables")

    tracer.patch_function(scalability, "sweep_rows", "scalability.sweep_rows")

    tracer.patch_function(qbd, "build_generator", "qbd.build_generator",
                          value=lambda r, *a, **k: r.n_states)
    tracer.patch_function(
        qbd, "solve_stationary",
        lambda g, method="dense": "qbd.solve_stationary[%s]" % method)
    tracer.patch_method(qbd.Generator, "dense", "qbd.Generator.dense",
                        value=lambda r, *a, **k: 8 * r.shape[0] * r.shape[1])
    tracer.patch_function(qbd, "gap_distribution", "qbd.gap_distribution")

    tracer.patch_function(balance._kernel, "run_replication", "balance.run_replication",
                          value=lambda r, *a, **k: r[2])
    tracer.patch_function(balance, "simulate", "balance.simulate")


def _report_counts(report):
    c = report.counters
    return {
        "frames": c["frames_consumed"],
        "duplicates": c["dropped_duplicate"],
        "recomputes": len({row[0] for row in report.link_utilization}),
        "table_series_rows": len(report.table_series),
        "link_util_rows": len(report.link_utilization),
    }


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans."""
    dur = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    child_time = [0.0] * len(spans)
    protocol_child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            if names[i] in PROTOCOL:
                protocol_child_time[s[3]] += dur[i]

    def inside(i, group):
        p = spans[i][3]
        while p >= 0:
            if names[p] in group:
                return True
            p = spans[p][3]
        return False

    def outermost(group):
        return [i for i, n in enumerate(names) if n in group and not inside(i, group)]

    def incl(group):
        return sum(dur[i] for i in outermost(group))

    def self_time(group):
        return sum(dur[i] - child_time[i] for i, n in enumerate(names) if n in group)

    def count(group):
        return sum(1 for n in names if n in group)

    def values(group):
        return [spans[i][4] for i in outermost(group)]

    runs = values(ENGINE_RUN)
    frames = sum(r["frames"] for r in runs)
    run_s = incl(ENGINE_RUN)
    fluid_calls = count(FLUID)
    rep_s = incl(BAL_KERNEL)
    arrivals = sum(values(BAL_KERNEL))
    m = {
        "cli.calls": count(CLI),
        "cli.self_s": self_time(CLI),
        "topology.build_s": incl(TOPO_BUILD),
        "topology.path_count_s": incl(TOPO_PATHS),
        "topology.paths": sum(values(TOPO_PATHS)),
        "protocol.handle_calls": count(HANDLE),
        "protocol.handle_s": self_time(HANDLE),
        "protocol.tick_s": self_time(TICK),
        "protocol.entries_final": sum(values(COUNT_TABLES)),
        "protocol.dup_ratio": (sum(r["duplicates"] for r in runs) / frames) if frames else 0.0,
        "simnet.frames": frames,
        "simnet.frames_per_s": frames / run_s if run_s > 0 else 0.0,
        "simnet.engine_self_s": sum(dur[i] - protocol_child_time[i]
                                    for i in outermost(ENGINE_RUN)),
        "simnet.fluid_recomputes": sum(r["recomputes"] for r in runs),
        "simnet.s_per_recompute": incl(FLUID) / fluid_calls if fluid_calls else 0.0,
        "simnet.table_series_rows": sum(r["table_series_rows"] for r in runs),
        "simnet.link_util_rows": sum(r["link_util_rows"] for r in runs),
        "simnet.to_json_s": incl(TO_JSON),
        "simnet.census_s": incl(CENSUS),
        "scalability.sweep_s": incl(SWEEP),
        "scalability.rows": sum(values(SWEEP)),
        "qbd.states": sum(values(QBD_BUILD)),
        "qbd.build_s": incl(QBD_BUILD),
        "qbd.solve_dense_s": self_time(QBD_SOLVE_DENSE),
        "qbd.solve_block_s": self_time(QBD_SOLVE_BLOCK),
        "qbd.dense_matrix_s": incl(QBD_DENSE),
        "qbd.dense_matrix_bytes": sum(values(QBD_DENSE)),
        "qbd.gap_s": incl(QBD_GAP),
        "balance.replications": count(BAL_KERNEL),
        "balance.arrivals": arrivals,
        "balance.arrivals_per_s": arrivals / rep_s if rep_s > 0 else 0.0,
        "balance.replication_s": rep_s,
        "balance.stats_s": self_time(BAL_SIMULATE),
    }
    assert set(m) == {name for name, _ in PER_LAYER}
    return m
