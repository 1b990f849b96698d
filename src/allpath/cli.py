"""Command-line entry point: simulate | scalability | qbd | balance | replay.

Every subcommand returns its CSV/JSON outputs as texts; after the run,
`main` writes them plus a run manifest into the output directory (--out,
default $ALLPATH_OUTDIR or the working directory).  A subcommand that
fails writes nothing.  Replaying a manifest with `allpath replay`
reproduces the output files byte for byte.  Numeric CSV fields carry 12
significant digits.  Exit codes: 0 success, 2 usage error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from . import __version__, balance, scalability, simnet, topology
from .protocol import tables_csv
from .topology import (INT, NAME_OR_OBJECT, NUMBER, OBJECT, OPTIONAL_NUMBER, STR, json_field,
                       json_objects, json_typed)

# qbd, and numpy with it, is imported only by the subcommand that uses it

MANIFEST_NAME = "manifest.json"


def _fmt(x):
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _csv(header, rows):
    return "".join(",".join(map(_fmt, line)) + "\n" for line in [header, *rows])


# the one name of each protocol, for --protocol and a scenario's protocol
PROTOCOLS = {p.replace("_", "-"): p for p in simnet.PROTOCOLS}


def _parse_topology(spec):
    """A generator name (grid:N, crossed:N, diamond) or a topology object."""
    if isinstance(spec, dict):
        return topology.Topology.from_json_dict(spec)
    if spec == "diamond":
        return topology.make_diamond()
    kind, _, n = spec.partition(":")
    make = {"grid": topology.make_simple_grid, "crossed": topology.make_crossed_grid}.get(kind)
    if make is None or not n.removeprefix("-").isdecimal():
        raise ValueError("unknown topology %r (use grid:N, crossed:N or diamond)" % spec)
    return make(int(n))


def _parse_float_list(text):
    return [float(x) for x in text.split(",")]


def _parse_range(text):
    lo, hi = text.split("..")
    return list(range(int(lo), int(hi) + 1))


def _parse_int_list(text):
    return [int(x) for x in text.split(",")]


def _checked(convert, ok, what):
    """An argparse type: convert, then reject values outside the domain (exit 2)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("%s is not %s" % (text, what))
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def _as_given(parse, ok, what):
    """An argparse type that parses the text and checks the values (exit 2),
    then returns the text as given, so the manifest keeps it."""
    def check(text):
        try:
            good = ok(parse(text))
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError("%s is not %s" % (text, what))
        return text
    return check


_load_list = _as_given(_parse_float_list, lambda v: all(0 < x < math.inf for x in v),
                       "a comma list of finite numbers > 0")
_n_range = _as_given(_parse_range, lambda v: v and v[0] >= 2, "A..B with 2 <= A <= B")
_host_list = _as_given(_parse_int_list, lambda v: all(h > 0 and h % 4 == 0 for h in v),
                       "a comma list of positive multiples of 4")
_topology_name = _as_given(_parse_topology, lambda t: True,
                           "grid:N with N >= 1, crossed:N with N >= 2, or diamond")


# -- subcommands ----------------------------------------------------------


def cmd_simulate(args):
    """Run the --scenario document, or {}: each field it lacks takes its
    option's value, and without flows it runs --flows random 12,000-bit flows."""
    doc = {}
    if args.scenario:
        with open(args.scenario) as fh:
            doc = json_typed("scenario", json.load(fh), OBJECT)
    t = _parse_topology(json_field("scenario", doc, "topology", NAME_OR_OBJECT,
                                   default=args.topology))
    protocol = json_field("scenario", doc, "protocol", STR, default=args.protocol)
    if protocol not in PROTOCOLS:
        raise ValueError("scenario.protocol must be one of %s, not %s"
                         % (", ".join(PROTOCOLS), json.dumps(protocol)))
    seed = json_field("scenario", doc, "seed", INT, default=args.seed)
    duration = json_field("scenario", doc, "duration", OPTIONAL_NUMBER, default=args.duration)
    if "flows" in doc:
        workload = [simnet.FlowSpec(json_field(where, f, "src", STR),
                                    json_field(where, f, "dst", STR),
                                    json_field(where, f, "size_bits", NUMBER),
                                    json_field(where, f, "start_time", NUMBER))
                    for where, f in json_objects("scenario", doc, "flows")]
    else:
        rng = random.Random(seed)
        hosts = sorted(t.hosts)
        if len(hosts) < 2:
            raise ValueError("topology has fewer than two hosts")
        workload = [simnet.FlowSpec(*rng.sample(hosts, 2), 12000, 0.3 * k)
                    for k in range(args.flows)]
    report = simnet.run_scenario(t, PROTOCOLS[protocol], workload, seed=seed,
                                 duration=duration)
    return {"report.json": report.to_json(), "report.csv": report.utilization_csv(),
            "tables.csv": tables_csv(report.bridges.values(), report.end_time)}


def cmd_scalability(args):
    if args.grid == "simple":
        factory, criterion = topology.make_simple_grid, topology.SHORTEST_ONLY
    else:
        factory, criterion = topology.make_crossed_grid, topology.SHORTEST_PLUS_ONE
    header = ["n", "H", "P_FP", "P_AP", "P_BP", "T_FP", "T_AP", "T_BP",
              "R_FA", "R_AB", "psi_paths"]
    rows = [[r[k] for k in header]
            for r in scalability.sweep_rows(factory, _parse_range(args.n_range),
                                            _parse_int_list(args.hosts), criterion)]
    return {"scalability.csv": _csv(header, rows)}


def cmd_qbd(args):
    from . import qbd

    summary = []
    gaps = []
    for rho in _parse_float_list(args.rho):
        _, u1, u2, lp, gap = qbd.solve_model(args.c1, args.c2, rho, method=args.method)
        summary.append([rho, u1, u2, lp])
        for psi in sorted(gap):
            gaps.append([rho, psi, gap[psi]])
    return {"qbd_summary.csv": _csv(["rho", "u1", "u2", "lp"], summary),
            "qbd_gap.csv": _csv(["rho", "psi", "probability"], gaps)}


def cmd_balance(args):
    capacities = [args.capacity] * args.paths
    rows = []
    for rho in _parse_float_list(args.rho):
        if args.traffic == "dcmix":
            rep = balance.simulate_dc(capacities, rho, duration=args.duration,
                                      replications=args.replications, seed=args.seed)
        else:
            lam = balance.arrival_rate_for_load(rho, capacities, 1.0)
            rep = balance.simulate(capacities, lam, 1.0, args.duration,
                                   args.replications, args.seed)
        fi = "" if rep.fairness_index is None else rep.fairness_index
        for i, u in enumerate(rep.u):
            ci = rep.u_ci[i]
            rows.append([rho, i + 1, u, rep.loss_probability, fi,
                         "" if ci is None else _fmt(u - ci),
                         "" if ci is None else _fmt(u + ci)])
    return {"balance.csv": _csv(["rho", "path_id", "u", "lp", "fi", "ci_low", "ci_high"], rows)}


def cmd_replay(args):
    """The namespace a manifest parses to, for main to run; a bad one raises ValueError."""
    with open(args.manifest) as fh:
        doc = json_typed("manifest", json.load(fh), OBJECT)
    argv = [json_field("manifest", doc, "subcommand", STR)]
    for key, val in json_field("manifest", doc, "params", OBJECT).items():
        if val is None:
            continue
        argv += ["--" + key.replace("_", "-"), str(val)]
    if args.out:
        argv += ["--out", args.out]
    args = build_parser(_ManifestParser).parse_args(argv)
    if args.cmd == "replay":  # a "" key rebuilds as "--", and its value as a manifest
        raise ValueError("manifest: a manifest records a run, not a replay")
    return args


# -- parser ---------------------------------------------------------------


class _ManifestParser(argparse.ArgumentParser):
    """The parser for an argv rebuilt from a manifest: its errors are the manifest's.

    A manifest names each option in full and has no --help, so a key that is
    not exactly an option of its subcommand is refused, not run.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)

    def error(self, message):
        raise ValueError("manifest: " + message)


def build_parser(parser_class=argparse.ArgumentParser):
    ap = parser_class(prog="allpath", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="run a protocol traffic scenario")
    p.add_argument("--topology", type=_topology_name, default="grid:3",
                   help="grid:N, crossed:N or diamond")
    p.add_argument("--protocol", default="arp-path", choices=list(PROTOCOLS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=_positive_float, default=None)
    p.add_argument("--flows", type=_nonnegative_int, default=4)
    # recorded absolute, so a replay reads the same file from any directory
    p.add_argument("--scenario", type=os.path.abspath, default=None, help="scenario JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("scalability", help="table-size and path-count sweep")
    p.add_argument("--grid", choices=["simple", "crossed"], default="simple")
    p.add_argument("--n-range", type=_n_range, default="2..6",
                   help="grid sizes A..B, 2 <= A <= B")
    p.add_argument("--hosts", type=_host_list, default="4,8,12",
                   help="host counts, comma list of positive multiples of 4")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_scalability)

    p = sub.add_parser("qbd", help="two-path CTMC stationary analysis")
    p.add_argument("--c1", type=_positive_int, required=True)
    p.add_argument("--c2", type=_positive_int, required=True)
    p.add_argument("--rho", type=_load_list, default="0.5,1,2",
                   help="offered load, arrivals per mean holding time, comma list")
    p.add_argument("--method", choices=["dense", "block_tridiagonal"],
                   default="block_tridiagonal",
                   help="both solve Q^T pinned at one modal state: block_tridiagonal "
                        "as a banded LU (default), dense as a full LU, a small-model "
                        "oracle refused when (C1+1)(C2+1) is too large (exit 2)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_qbd)

    p = sub.add_parser("balance", help="flow-level load-balance simulation")
    p.add_argument("--paths", type=_positive_int, default=6)
    p.add_argument("--capacity", type=_positive_int, default=20)
    p.add_argument("--traffic", choices=["exp", "dcmix"], default="exp")
    p.add_argument("--rho", type=_load_list, default="0.5,1",
                   help="offered load per unit of total capacity")
    p.add_argument("--replications", type=_positive_int, default=10)
    p.add_argument("--duration", type=_positive_float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("replay", help="re-run a manifest, reproducing outputs")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    return ap


def main(argv=None):
    """Parse (replay: the manifest), refuse, run, then write the run's outputs and its manifest.

    The manifest's params are the parsed options, so replay passes back
    exactly what the parser accepted.  A subcommand returns its outputs as
    texts, so one that fails, by any exception, writes nothing: the output
    directory is made only after the run.  An error other than ValueError
    or OSError propagates.  An OSError while writing leaves the files
    already written, and the manifest is written last.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "replay":
            args = cmd_replay(args)
        if args.cmd == "qbd" and args.method == "dense":
            from . import qbd

            states = (args.c1 + 1) * (args.c2 + 1)
            if states > qbd.DENSE_MAX_STATES:
                print("allpath: error: --method dense is limited to %d states, and C1 = %d, "
                      "C2 = %d has %d; use block_tridiagonal"
                      % (qbd.DENSE_MAX_STATES, args.c1, args.c2, states), file=sys.stderr)
                return 2
        started = time.time()
        files = args.fn(args)
        params = {k: v for k, v in vars(args).items() if k not in ("cmd", "fn", "out")}
        manifest = {"subcommand": args.cmd, "params": params, "version": __version__,
                    "outputs": sorted(files), "wall_clock_s": time.time() - started}
        files[MANIFEST_NAME] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        outdir = args.out or os.environ.get("ALLPATH_OUTDIR") or "."
        os.makedirs(outdir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(outdir, name), "w") as fh:
                fh.write(text)
        return 0
    except (ValueError, OSError) as exc:
        print("allpath: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
