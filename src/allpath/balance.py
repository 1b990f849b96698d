"""Flow-level simulator of join-max-available-capacity scheduling.

Arriving flows always take the path with the most available capacity, ties
broken uniformly at random; each flow occupies exactly one resource unit
for its holding time and is lost when every path is full.

The replication loop runs on the hand-written C kernel
(allpath._balance_core) when it was built, otherwise on its pure-python
twin (allpath._balance_py); KERNEL names the one in use, "c" or "python".
The twins return identical results for a given seed.  Replications are
independent and the first warmup fraction of each is discarded.

simulate runs the replications in parallel on the CPUs this process may
use: the calling thread and up to one helper thread per further CPU take
replication indices from one shared iterator.  The C kernel releases the
GIL for its event loop, so those threads run at once; the python twin holds
it, so there they take turns.  Each replication's seed depends on its index
alone and its results are stored by index, so the report does not depend on
how many CPUs the process gets, or on which kernel runs.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

try:  # pragma: no cover - depends on the build
    from . import _balance_core as _kernel
    KERNEL = "c"
except ImportError:  # pragma: no cover
    from . import _balance_py as _kernel
    KERNEL = "python"

from ._balance_py import HOLD_DCMIX, HOLD_EXP

WARMUP_FRACTION = 0.1

# Data-center mixture: rare fixed-size elephants among uniform mice,
# holding times for 1 Gbps paths.
DC_ELEPHANT_FRACTION = 0.01
DC_ELEPHANT_HOLDING_S = 100e6 * 8 / 1e9  # 100 MB chunk at 1 Gbps
DC_MOUSE_HOLDING_RANGE_S = (2e3 * 8 / 1e9, 50e3 * 8 / 1e9)  # 2..50 KB

# Largest expected arrival count (arrival rate x duration) of one replication.
# The C kernel handles about 5e6 arrivals/s at N=16, C=250, rho 0.9 on one
# core of a 2 vCPU Xeon VM, so the limit is about 20 s of work for each
# replication, however many run at once; the largest benchmark case asks for
# 1.8e4.
MAX_ARRIVALS_PER_REPLICATION = 1e8


class BalanceError(ValueError):
    pass


@dataclass
class TrafficMix:
    elephant_fraction: float = DC_ELEPHANT_FRACTION
    elephant_holding_s: float = DC_ELEPHANT_HOLDING_S
    mouse_holding_range_s: tuple = DC_MOUSE_HOLDING_RANGE_S

    def __post_init__(self):
        if not 0.0 <= self.elephant_fraction <= 1.0:
            raise BalanceError("elephant fraction must be a probability")
        lo, hi = self.mouse_holding_range_s
        if lo > hi or lo < 0:
            raise BalanceError("bad mouse holding range")

    @property
    def mean_holding_s(self):
        lo, hi = self.mouse_holding_range_s
        return (self.elephant_fraction * self.elephant_holding_s
                + (1 - self.elephant_fraction) * (lo + hi) / 2)

    def kernel_params(self):
        lo, hi = self.mouse_holding_range_s
        return HOLD_DCMIX, self.elephant_fraction, self.elephant_holding_s, lo, hi


def jain_index(u):
    """(sum u)^2 / (N * sum u^2); 1 is perfectly even, 1/N one-path-only."""
    if not len(u):
        raise BalanceError("empty utilization vector")
    if any(x < 0 for x in u):
        raise BalanceError("utilizations must be nonnegative")
    sq = sum(x * x for x in u)
    if sq == 0:
        raise BalanceError("all-zero utilization vector")
    s = sum(u)
    return s * s / (len(u) * sq)


@dataclass
class BalanceReport:
    u: list  # mean utilization per path
    u_ci: list  # 95% half-width per path (None with a single replication)
    loss_probability: float
    fairness_index: float | None  # None when every u is 0
    u_reps: list  # per-replication utilization vectors
    lp_reps: list


def _ci_half_width(samples):
    n = len(samples)
    if n < 2:
        return None
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    # the 97.5% Student t quantile; scipy.stats.t.ppf calls this function,
    # and importing scipy.stats costs about a second
    from scipy.special import stdtrit

    return float(stdtrit(n - 1, 0.975)) * math.sqrt(var / n)


def _mix_seed(seed, rep):
    # distinct well-separated splitmix64 starting points per replication
    return (seed * 0x9E3779B97F4A7C15 + rep * 0xBF58476D1CE4E5B9 + 1) & ((1 << 64) - 1)


def _usable_cpus():
    """How many CPUs this process may run on; os.cpu_count() where the OS
    cannot say (os.sched_getaffinity is missing on macOS and Windows)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate(capacities, arrival_rate, holding, duration, replications=1, seed=0):
    """Run independent replications, in parallel (see the module docstring);
    holding is a TrafficMix, or the mean in seconds of exponential holding
    times.

    fairness_index is None when no path carried any load.  When a replication
    raises, no further one starts; simulate waits for those running and
    re-raises the first exception."""
    capacities = [int(c) for c in capacities]
    if not capacities or any(c < 1 for c in capacities):
        raise BalanceError("capacities must be positive integers")
    if not 0 < duration < math.inf:
        raise BalanceError("duration must be finite and positive")
    if not 0 < arrival_rate < math.inf:
        raise BalanceError("arrival rate must be finite and positive")
    if arrival_rate * duration > MAX_ARRIVALS_PER_REPLICATION:
        raise BalanceError("arrival rate x duration is %g expected arrivals per replication, "
                           "above the limit of %g" % (arrival_rate * duration,
                                                      MAX_ARRIVALS_PER_REPLICATION))
    if replications < 1:
        raise BalanceError("need at least one replication")

    if isinstance(holding, TrafficMix):
        kind, p0, p1, p2, p3 = holding.kernel_params()
    elif 0 < holding < math.inf:
        kind, p0, p1, p2, p3 = HOLD_EXP, float(holding), 0.0, 0.0, 0.0
    else:
        raise BalanceError("mean holding time must be finite and positive")

    n = len(capacities)
    warmup = duration * WARMUP_FRACTION
    u_reps = [None] * replications
    lp_reps = [None] * replications
    todo = iter(range(replications))  # next() on it is one call under the GIL
    errors = []

    def work():
        try:
            for rep in todo:
                busy, span, arrivals, losses = _kernel.run_replication(
                    capacities, arrival_rate, duration, warmup,
                    _mix_seed(seed, rep), kind, p0, p1, p2, p3)
                u_reps[rep] = [busy[i] / (span * capacities[i]) for i in range(n)]
                lp_reps[rep] = losses / arrivals if arrivals else 0.0
        except BaseException as exc:  # KeyboardInterrupt too: re-raised below
            errors.append(exc)
            deque(todo, maxlen=0)  # exhausted: no further replication starts

    helpers = []
    try:
        for _ in range(min(replications, _usable_cpus()) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            helpers.append(thread)
        work()
    finally:
        deque(todo, maxlen=0)  # also when starting a helper failed
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]

    u = [sum(rep[i] for rep in u_reps) / replications for i in range(n)]
    lp = sum(lp_reps) / replications
    return BalanceReport(
        u=u,
        u_ci=[_ci_half_width([rep[i] for rep in u_reps]) for i in range(n)],
        loss_probability=lp,
        fairness_index=jain_index(u) if any(u) else None,
        u_reps=u_reps,
        lp_reps=lp_reps,
    )


def arrival_rate_for_load(rho, capacities, mean_holding_s):
    """Offered load rho = lambda * E[holding] / total capacity."""
    if not 0 < rho < math.inf:
        raise BalanceError("rho must be finite and positive")
    return rho * sum(capacities) / mean_holding_s


def simulate_dc(capacities=None, rho=1.0, duration=10.0, replications=10, seed=0):
    """Data-center mixture scenario (defaults: N=6 paths of 20 units)."""
    if capacities is None:
        capacities = [20] * 6
    mix = TrafficMix()
    lam = arrival_rate_for_load(rho, capacities, mix.mean_holding_s)
    return simulate(capacities, lam, mix, duration, replications, seed)
