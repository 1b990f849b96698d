"""Shared fixtures."""

import importlib
import importlib.machinery
import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from allpath.protocol import BRIDGE_CLASSES
from allpath.simnet import Engine, FlowSpec, measure_empirical_tables
from allpath.topology import Link, Topology

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """compiled_kernel(name) -> the compiled module allpath.<name>.

    The in-place build when the checkout has one; otherwise every extension
    of setup.py is built once into a temp dir and the module loaded from
    there.  Skips only when there is no C compiler.
    """
    build = {}

    def load(name):
        try:
            return importlib.import_module("allpath." + name)
        except ImportError:
            pass
        if "lib" not in build:
            cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
            if shutil.which(cc.split()[0]) is None:
                pytest.skip("no C compiler to build the kernels with")
            lib = tmp_path_factory.mktemp("build")
            build["lib"] = lib
            build["proc"] = subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib),
                 "--build-temp", str(lib)],
                cwd=ROOT, capture_output=True, text=True)
        proc = build["proc"]
        # the extensions are optional, so a failed compile shows only as a missing file
        built = [path for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 for path in (build["lib"] / "allpath").glob(name + suffix)]
        assert proc.returncode == 0 and built, proc.stdout + proc.stderr
        spec = importlib.util.spec_from_file_location("allpath." + name, built[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def erlang_b():
    """erlang_b(servers, offered) -> the Erlang-B blocking probability, by the
    standard recursion B(k) = A B(k-1) / (k + A B(k-1)) from B(0) = 1."""
    def blocking(servers, offered):
        b = 1.0
        for k in range(1, servers + 1):
            b = offered * b / (k + offered * b)
        return b

    return blocking


@pytest.fixture(scope="session")
def random_scenario():
    """random_scenario(seed, k=0, tree=False) -> (topology, flows), drawn from seed.

    A random spanning tree on 2-10 bridges, each bridge after the first
    linked to a random earlier one, plus up to as many extra links between
    bridge pairs not yet linked; each link, host links included, of
    bandwidth 1e8, 1e9 or 1e10 b/s and delay 1, 2, 5 or 10 us.  2-6 hosts on
    random bridges, and 1-8 flows between random host pairs of 12 kbit,
    1 Mbit or 100 Mbit, started in [0, 0.5] s.  k scales time by 2^-k: every
    bandwidth times 2^k, every delay and start time divided by it.
    tree=True keeps the spanning tree alone: it draws the extra links but
    leaves them out.  The draws depend on neither k nor tree, and a power of
    two scales a float exactly.
    """
    def scenario(seed, k=0, tree=False):
        rng = random.Random(seed)

        def link(a, b):
            return Link(a, b, bandwidth_bps=math.ldexp(rng.choice((1e8, 1e9, 1e10)), k),
                        prop_delay_s=math.ldexp(rng.choice((1e-6, 2e-6, 5e-6, 1e-5)), -k))

        n = rng.randint(2, 10)
        links = [link(rng.randint(1, b - 1), b) for b in range(2, n + 1)]
        linked = {frozenset((ln.a, ln.b)) for ln in links}
        for _ in range(rng.randint(0, n - 1)):
            a, b = rng.sample(range(1, n + 1), 2)
            if frozenset((a, b)) not in linked:
                linked.add(frozenset((a, b)))
                extra = link(a, b)
                if not tree:
                    links.append(extra)
        hosts = {"h%d" % i: rng.randint(1, n) for i in range(rng.randint(2, 6))}
        links += [link(h, b) for h, b in hosts.items()]
        flows = [FlowSpec(*rng.sample(sorted(hosts), 2), rng.choice((12e3, 1e6, 1e8)),
                          math.ldexp(rng.uniform(0, 0.5), -k))
                 for _ in range(rng.randint(1, 8))]
        return Topology(range(1, n + 1), links, hosts), flows

    return scenario


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

    Tables are keyed by destination, the protocol's host_key: the host for
    ARP-Path, its edge bridge for Bridge-Path.  A bridge on a refresh probe's
    trace to a key forwarded the probe by a live entry for it (a Bridge-Path
    egress edge holds its own id, refreshed by its hosts' outgoing data), and
    only the refreshes keep entries alive until the census, each along a
    trace to or from its key.  So
    sum |union of traces to key| <= total <= sum |union of traces to or from key|,
    which does not use the fitted L_e.  Flow-Path, whose host_key is None, is
    not bounded this way: its bounds are None, and its closed form H(H-1)b is
    checked directly.
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
        host_key = BRIDGE_CLASSES[protocol].host_key
        if host_key is None:
            return result, None
        H = len(topology.hosts)
        to, touching = {}, {}
        for flow in report.flows[H * (H - 1) // 2:]:  # phase 2: the refresh flows
            src, dst = host_key(topology, flow["src"]), host_key(topology, flow["dst"])
            for k in {src, dst}:
                touching.setdefault(k, set()).update(flow["probe_trace"])
            to.setdefault(dst, set()).update(flow["probe_trace"])
        return result, (sum(map(len, to.values())), sum(map(len, touching.values())))

    return measure
