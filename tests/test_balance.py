"""Flow-level balance simulator: scheduler, fairness, kernels, Erlang-B."""

import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allpath import _balance_py, balance
from allpath.balance import (
    MAX_ARRIVALS_PER_REPLICATION,
    BalanceError,
    BalanceReport,
    TrafficMix,
    arrival_rate_for_load,
    jain_index,
    simulate,
    simulate_dc,
)

ROOT = Path(__file__).resolve().parents[1]

# (lam, duration) pairs that both kernel twins reject: a NaN rate would pop
# an empty heap in the C kernel, an infinite duration would never end
BAD_RATES = [(math.nan, 2.0), (math.inf, 2.0), (0.0, 2.0), (-1.0, 2.0),
             (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0)]


def _replication(caps, seed):
    """A replication of 1 s from t = 0 at one arrival per second, each flow
    holding its unit for 10 s, longer than the run."""
    return _balance_py.run_replication(caps, 1.0, 1.0, 0.0, seed,
                                       _balance_py.HOLD_DET, 10.0, 0, 0, 0)


class TestSchedule:
    def test_unique_maximum(self):
        busy, _, arrivals, losses = _replication([3, 1], seed=5)
        assert (arrivals, losses) == (1, 0)
        assert busy[0] > 0 and busy[1] == 0

    def test_all_full_is_loss(self):
        busy, _, arrivals, losses = _replication([1], seed=0)
        assert (arrivals, losses) == (2, 1)

    def test_tie_split_roughly_even(self):
        # the first arrival breaks the tie and its path stays the busier one
        firsts = []
        for seed in range(4000):
            busy, _, arrivals, _ = _replication([2, 2], seed)
            if arrivals:
                firsts.append(0 if busy[0] > busy[1] else 1)
        frac = firsts.count(0) / len(firsts)
        assert len(firsts) > 2000
        assert 0.45 < frac < 0.55

    def test_only_maximizers_chosen(self):
        rng = random.Random(3)
        checked = 0
        for seed in range(200):
            caps = [rng.randint(1, 5) for _ in range(4)]
            busy, _, arrivals, _ = _replication(caps, seed)
            if arrivals == 1:
                [path] = [i for i, b in enumerate(busy) if b > 0]
                assert caps[path] == max(caps)
                checked += 1
        assert checked > 50


class TestJain:
    def test_perfect(self):
        assert jain_index([0.3] * 6) == pytest.approx(1.0)

    def test_worst_case(self):
        assert jain_index([0.7, 0, 0, 0]) == pytest.approx(0.25)

    def test_example(self):
        assert jain_index([0.5, 0.25]) == pytest.approx(0.9)

    def test_permutation_invariant(self):
        u = [0.1, 0.4, 0.3]
        assert jain_index(u) == pytest.approx(jain_index(list(reversed(u))))

    def test_errors(self):
        with pytest.raises(BalanceError):
            jain_index([])
        with pytest.raises(BalanceError):
            jain_index([0.0, 0.0])
        with pytest.raises(BalanceError):
            jain_index([-0.1, 0.5])


class TestTrafficMix:
    def test_mean_holding(self):
        m = TrafficMix()
        want = 0.01 * 0.8 + 0.99 * (1.6e-5 + 4e-4) / 2
        assert m.mean_holding_s == pytest.approx(want)

    def test_validation(self):
        with pytest.raises(BalanceError):
            TrafficMix(elephant_fraction=1.5)
        with pytest.raises(BalanceError):
            TrafficMix(mouse_holding_range_s=(2.0, 1.0))

    def test_arrival_rate_for_load(self):
        assert arrival_rate_for_load(0.5, [20, 20], 2.0) == pytest.approx(10.0)
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(BalanceError):
                arrival_rate_for_load(rho, [20], 1.0)


class TestSimulate:
    def test_input_validation(self):
        with pytest.raises(BalanceError):
            simulate([0], 1.0, 1.0, 1.0)
        with pytest.raises(BalanceError):
            simulate([5], 1.0, 1.0, 0.0)
        with pytest.raises(BalanceError):
            simulate([5], -1.0, 1.0, 1.0)
        for mean in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(BalanceError, match="holding"):
                simulate([5], 1.0, mean, 1.0)
        with pytest.raises(BalanceError):
            simulate([5], 1.0, 1.0, 1.0, replications=0)
        for lam, duration in BAD_RATES:
            with pytest.raises(BalanceError):
                simulate([5], lam, 1.0, duration)
        # the expected arrival count of a replication is bounded
        with pytest.raises(BalanceError, match="expected arrivals"):
            simulate([5], 1e300, 1.0, 1.0)
        with pytest.raises(BalanceError, match="expected arrivals"):
            simulate([5], 1e150, 1.0, 1e200)
        with pytest.raises(BalanceError, match="expected arrivals"):
            simulate([5], 2.0, 1.0, MAX_ARRIVALS_PER_REPLICATION)

    def test_confidence_interval_without_scipy_stats(self):
        # the t quantile comes from scipy.special; scipy.stats takes ~1 s to import
        code = ("import sys\n"
                "from allpath.balance import simulate\n"
                "rep = simulate([5, 5], 4.0, 1.0, 2.0, replications=2, seed=1)\n"
                "assert rep.u_ci[0] is not None\n"
                "assert 'scipy.stats' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_confidence_interval_quantile(self):
        # two replications: the 97.5% t quantile with one degree of freedom
        rep = simulate([5, 5], 4.0, 1.0, 2.0, replications=2, seed=1)
        xs = [u[0] for u in rep.u_reps]
        sd = abs(xs[0] - xs[1]) / math.sqrt(2)
        assert rep.u_ci[0] == pytest.approx(12.706204736174694 * sd / math.sqrt(2), rel=1e-12)

    def test_deterministic_given_seed(self):
        a = simulate([10, 10], 8.0, 1.0, 50.0, replications=3, seed=5)
        b = simulate([10, 10], 8.0, 1.0, 50.0, replications=3, seed=5)
        assert a.u == b.u and a.lp_reps == b.lp_reps

    def test_single_replication_no_ci(self):
        rep = simulate([10], 5.0, 1.0, 20.0, replications=1, seed=1)
        assert rep.u_ci == [None]

    def test_utilization_bounds(self):
        rep = simulate([5, 5], 50.0, 1.0, 20.0, replications=4, seed=2)
        for u in rep.u:
            assert 0.0 <= u <= 1.0
        assert 0.0 <= rep.loss_probability <= 1.0
        assert 0.5 <= rep.fairness_index <= 1.0

    def test_deterministic_holding_busy_accounting(self):
        hold = 0.05
        busy, span, arrivals, losses = _balance_py.run_replication(
            [1], 2.0, 100.0, 0.0, seed=9, hold_kind=_balance_py.HOLD_DET,
            p0=hold, p1=0, p2=0, p3=0)
        served = arrivals - losses
        # each served flow holds exactly `hold`; at most one flow is cut off
        # by the horizon
        assert busy[0] <= served * hold + hold
        assert busy[0] >= (served - 1) * hold

    def test_erlang_b_oracle(self, erlang_b):
        # join-max-available loses a flow only when every path is full, so the
        # total occupancy is an Erlang-loss station with sum(C) servers for any
        # capacities and holding distribution (Erlang-B insensitivity); the
        # carried load sum(u_i * C_i) is the offered load times 1 - B
        cases = [([5], 1.0, rho, 400.0, 12) for rho in (0.4, 0.8, 1.2, 2.0)] + [
            ([5, 3, 2], 1.0, 1.0, 200.0, 10),
            ([4, 4], 1.0, 1.5, 200.0, 10),
            ([2, 1], TrafficMix(), 1.0, 10.0, 10),
        ]
        for caps, holding, rho, duration, replications in cases:
            mean_holding = getattr(holding, "mean_holding_s", holding)
            rep = simulate(caps, arrival_rate_for_load(rho, caps, mean_holding), holding,
                           duration, replications=replications, seed=11)
            offered = rho * sum(caps)
            blocking = erlang_b(sum(caps), offered)
            carried = [sum(u * c for u, c in zip(us, caps)) for us in rep.u_reps]
            for samples, want in ((rep.lp_reps, blocking), (carried, offered * (1 - blocking))):
                n = len(samples)
                mean = sum(samples) / n
                var = sum((x - mean) ** 2 for x in samples) / (n - 1)
                se = math.sqrt(var / n)
                assert abs(mean - want) <= 3 * max(se, 1e-4), (caps, rho, mean, want, se)


class TestKernels:
    def test_kernel_twins_match_exactly(self, compiled_kernel):
        core = compiled_kernel("_balance_core")
        # the C kernel and the pure-python twin share one RNG stream and
        # perform the same floating-point operations in the same order
        cases = [
            ([20, 20], 30.0, 20.0, _balance_py.HOLD_EXP, (1.0, 0, 0, 0)),
            ([20] * 6, 900.0, 20.0, _balance_py.HOLD_DCMIX, (0.01, 0.8, 1.6e-5, 4e-4)),
            ([7], 5.0, 20.0, _balance_py.HOLD_DET, (0.3, 0, 0, 0)),
            # the benchmark's heap-heavy shape: up to 4000 flows in flight
            ([250] * 16, 3600.0, 1.0, _balance_py.HOLD_EXP, (1.0, 0, 0, 0)),
            # every flow outlives the run, and the first ones straddle the
            # warm-up: the busy credit is clipped at both ends of the window
            ([3, 3], 2.0, 1.0, _balance_py.HOLD_DET, (10.0, 0, 0, 0)),
        ]
        for caps, lam, duration, kind, params in cases:
            for seed in (1, 99, 2**63 + 17):
                a = _balance_py.run_replication(caps, lam, duration, duration / 10,
                                                seed, kind, *params)
                b = core.run_replication(caps, lam, duration, duration / 10,
                                         seed, kind, *params)
                assert a == b

    def test_compiled_kernel_rejects_bad_capacities(self, compiled_kernel):
        core = compiled_kernel("_balance_core")
        for caps, error in (([2.5], TypeError), ([], ValueError), (5, TypeError)):
            with pytest.raises(error):
                core.run_replication(caps, 1.0, 2.0, 0.2, 1,
                                     _balance_py.HOLD_EXP, 1.0, 0, 0, 0)
        for lam, duration in BAD_RATES:
            with pytest.raises(ValueError):
                core.run_replication([2], lam, duration, 0.2, 1,
                                     _balance_py.HOLD_EXP, 1.0, 0, 0, 0)

    def test_python_kernel_rejects_bad_rates(self):
        for lam, duration in BAD_RATES:
            with pytest.raises(ValueError):
                _balance_py.run_replication([2], lam, duration, 0.2, 1,
                                            _balance_py.HOLD_EXP, 1.0, 0, 0, 0)

    def test_splitmix_reference_values(self):
        # first outputs of splitmix64 seeded with 0 (published reference)
        rng = _balance_py._SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_uniform_in_half_open_interval(self):
        rng = _balance_py._SplitMix64(123)
        for _ in range(1000):
            x = rng.uniform()
            assert 0.0 < x <= 1.0

    def test_tie_draw_of_one_takes_the_last_maximizer(self, compiled_kernel):
        core = compiled_kernel("_balance_core")
        # the seed whose second splitmix64 output is 2**64 - 1 (the finalizer
        # inverted), so the first tie draw is uniform() == 1.0 and k clips to 1
        seed = 0x932B113CFBD6B596
        rng = _balance_py._SplitMix64(seed)
        rng.uniform()
        assert rng.uniform() == 1.0
        args = ([3, 3], 1.0, 0.5, 0.0, seed, _balance_py.HOLD_DET, 10.0, 0, 0, 0)
        busy, _span, arrivals, _losses = result = _balance_py.run_replication(*args)
        assert arrivals == 2 and busy[1] > busy[0]  # the first flow went to path 1
        assert core.run_replication(*args) == result


def _sequential(kernel, capacities, arrival_rate, holding, duration, replications, seed):
    """simulate's report from a plain loop over kernel.run_replication, one
    replication after another on the calling thread."""
    if isinstance(holding, TrafficMix):
        kind, *params = holding.kernel_params()
    else:
        kind, params = _balance_py.HOLD_EXP, (holding, 0.0, 0.0, 0.0)
    n = len(capacities)
    u_reps, lp_reps = [], []
    for rep in range(replications):
        busy, span, arrivals, losses = kernel.run_replication(
            capacities, arrival_rate, duration, duration * balance.WARMUP_FRACTION,
            balance._mix_seed(seed, rep), kind, *params)
        u_reps.append([busy[i] / (span * capacities[i]) for i in range(n)])
        lp_reps.append(losses / arrivals if arrivals else 0.0)
    u = [sum(rep[i] for rep in u_reps) / replications for i in range(n)]
    return BalanceReport(
        u=u,
        u_ci=[balance._ci_half_width([rep[i] for rep in u_reps]) for i in range(n)],
        loss_probability=sum(lp_reps) / replications,
        fairness_index=jain_index(u) if any(u) else None,
        u_reps=u_reps,
        lp_reps=lp_reps,
    )


class TestParallelReplications:
    @pytest.mark.parametrize("twin", ["c", "python"])
    def test_report_does_not_depend_on_the_cpu_count(self, twin, compiled_kernel, monkeypatch):
        kernel = compiled_kernel("_balance_core") if twin == "c" else _balance_py
        monkeypatch.setattr(balance, "_kernel", kernel)
        mix = TrafficMix()
        cases = [([5, 3, 2], arrival_rate_for_load(0.9, [5, 3, 2], 1.0), 1.0, 20.0),
                 ([4, 4], arrival_rate_for_load(0.8, [4, 4], mix.mean_holding_s), mix, 0.5)]
        for caps, lam, holding, duration in cases:
            for replications in (1, 4, 10):
                want = _sequential(kernel, caps, lam, holding, duration, replications, seed=8)
                for cpus in (1, 2, 3, 16):
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                    got = simulate(caps, lam, holding, duration, replications, seed=8)
                    assert got == want, (caps, replications, cpus)

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        for count, cpus in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert balance._usable_cpus() == cpus
        want = _sequential(balance._kernel, [3, 3], 4.0, 1.0, 10.0, 4, seed=2)
        assert simulate([3, 3], 4.0, 1.0, 10.0, replications=4, seed=2) == want

    @pytest.mark.parametrize("on_helper", [False, True])
    def test_a_failed_replication_stops_the_run(self, on_helper, monkeypatch):
        # one helper thread; the thread that does not fail holds its first
        # replication until replication 3 fails on the other, so which thread
        # runs replication 3 is fixed, and any replication started after the
        # failure would show in `started`
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        replications, seed = 10, 7
        index = {balance._mix_seed(seed, rep): rep for rep in range(replications)}
        caller = threading.current_thread()
        other_busy, released = threading.Event(), threading.Event()
        started, raised = [], []

        def run_replication(capacities, lam, duration, warmup, seed, *hold):
            rep = index[seed]
            started.append(rep)
            if (threading.current_thread() is not caller) != on_helper:
                other_busy.set()
                released.wait(10)
            else:
                other_busy.wait(10)
                if rep == 3:
                    raised.append(KeyboardInterrupt(rep))
                    released.set()
                    raise raised[0]
            return [0.0] * len(capacities), duration - warmup, 0, 0

        monkeypatch.setattr(balance._kernel, "run_replication", run_replication)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        # the failing thread keeps the GIL from its raise until it has
        # exhausted the iterator or blocks, so the released thread cannot
        # take an index in between
        sys.setswitchinterval(60.0)
        try:
            with pytest.raises(KeyboardInterrupt) as info:
                simulate([2, 2], 1.0, 1.0, 1.0, replications, seed)
        finally:
            sys.setswitchinterval(interval)
        assert info.value is raised[0]
        assert sorted(started) == [0, 1, 2, 3]
        assert threading.active_count() == threads


class TestDcScenario:
    def test_fairness_near_one(self):
        rep = simulate_dc(rho=0.6, duration=2.0, replications=5, seed=3)
        assert rep.fairness_index > 0.99
        assert len(rep.u) == 6

    def test_all_mice_still_fair(self, compiled_kernel, monkeypatch):
        # about 3.5M arrivals, so on the compiled kernel, whose results
        # test_kernel_twins_match_exactly shows equal to the python twin's
        monkeypatch.setattr(balance, "_kernel", compiled_kernel("_balance_core"))
        mix = TrafficMix(elephant_fraction=0.0)
        caps = [20] * 6
        lam = arrival_rate_for_load(0.6, caps, mix.mean_holding_s)
        rep = simulate(caps, lam, mix, 2.0, replications=5, seed=4)
        assert rep.fairness_index > 0.99

    def test_elephants_only_equalized(self):
        mix = TrafficMix(elephant_fraction=1.0)
        caps = [20] * 6
        lam = arrival_rate_for_load(0.6, caps, mix.mean_holding_s)
        rep = simulate(caps, lam, mix, 20.0, replications=5, seed=5)
        assert rep.fairness_index > 0.99


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       lam=st.floats(min_value=0.5, max_value=50.0),
       caps=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4))
def test_property_replication_sane(seed, lam, caps):
    busy, span, arrivals, losses = _balance_py.run_replication(
        caps, lam, 5.0, 0.5, seed, _balance_py.HOLD_EXP, 0.5, 0, 0, 0)
    assert span == pytest.approx(4.5)
    assert 0 <= losses <= arrivals
    for i, c in enumerate(caps):
        assert 0.0 <= busy[i] <= span * c + 1e-9
