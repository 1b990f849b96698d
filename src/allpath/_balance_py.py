"""Pure-python replication kernel for the flow-level balance simulator.

The executable specification of the algorithm, and the fallback when the C
kernel allpath._balance_core is not built.  That kernel mirrors this code
operation for operation: the same splitmix64 stream and draw order, the
same arrival-before-departure tie rule, the same k-th-maximizer tie break,
the same heapq order of departures and the same busy credit, each admitted
flow's holding time clipped to [warmup, duration] and added once when it is
admitted, so both return identical results for a given seed.  A change here
must be made there too.
"""

from __future__ import annotations

import heapq
import math

_MASK = (1 << 64) - 1

HOLD_EXP = 0
HOLD_DCMIX = 1
HOLD_DET = 2


class _SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        return z

    def uniform(self):
        # in (0, 1]: safe for log()
        return ((self.next_u64() >> 11) + 1) * (2.0 ** -53)


def run_replication(capacities, lam, duration, warmup, seed,
                    hold_kind, p0, p1, p2, p3):
    """Simulate one replication; returns (busy_integrals, span, arrivals, losses).

    busy_integrals[i] is the post-warmup time integral of occupied units on
    path i; span is the measured interval length; arrivals/losses count
    post-warmup flow arrivals and blocked arrivals.
    """
    if not (0 < lam < math.inf and 0 < duration < math.inf):
        raise ValueError("lam and duration must be finite and positive")
    n = len(capacities)
    caps = list(capacities)
    rng = _SplitMix64(seed)
    occ = [0] * n
    busy = [0.0] * n
    departures = []  # heap of (time, path)
    arrivals = 0
    losses = 0
    next_arr = -math.log(rng.uniform()) / lam

    def draw_holding():
        if hold_kind == HOLD_EXP:
            return -math.log(rng.uniform()) * p0
        if hold_kind == HOLD_DCMIX:
            if rng.uniform() < p0:
                return p1
            return p2 + (p3 - p2) * rng.uniform()
        return p0

    while True:
        next_dep = departures[0][0] if departures else math.inf
        t = min(next_arr, next_dep)
        if t >= duration:
            break
        if next_arr <= next_dep:
            if t > warmup:
                arrivals += 1
            best = caps[0] - occ[0]
            n_best = 1
            choice = 0
            for i in range(1, n):
                avail = caps[i] - occ[i]
                if avail > best:
                    best = avail
                    n_best = 1
                    choice = i
                elif avail == best:
                    n_best += 1
            if best <= 0:
                if t > warmup:
                    losses += 1
            else:
                if n_best > 1:
                    k = int(rng.uniform() * n_best)
                    if k >= n_best:
                        k = n_best - 1
                    # k-th maximizer in path order
                    seen = -1
                    for i in range(n):
                        if caps[i] - occ[i] == best:
                            seen += 1
                            if seen == k:
                                choice = i
                                break
                occ[choice] += 1
                end = t + draw_holding()
                share = min(end, duration) - max(t, warmup)
                if share > 0:
                    busy[choice] += share
                heapq.heappush(departures, (end, choice))
            next_arr = t - math.log(rng.uniform()) / lam
        else:
            _, path = heapq.heappop(departures)
            occ[path] -= 1

    return busy, duration - warmup, arrivals, losses
