"""Two-path CTMC: generator structure, stationary solves, derived metrics."""

import math
import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allpath import qbd
from allpath.qbd import (
    QbdError,
    QbdModel,
    build_generator,
    gap_distribution,
    loss_probability,
    solve_model,
    solve_stationary,
    utilization,
)

# Hand-solved 4-state chain: C1=C2=1, lambda=1.  With p = pi(1,0) =
# pi(0,1): balance at (1,1) gives pi(1,1) = 2p, at (0,0) gives pi(0,0) = p,
# normalization 5p = 1.
ORACLE_PI = {(1, 1): 0.4, (1, 0): 0.2, (0, 1): 0.2, (0, 0): 0.2}
ORACLE_U = 0.4
ORACLE_LP = 0.2


class TestGenerator:
    def test_rows_sum_to_zero(self):
        g = build_generator(QbdModel(5, 3, 2.0))
        assert np.abs(g.dense().sum(axis=1)).max() < 1e-12

    def test_offdiagonal_nonnegative(self):
        Q = build_generator(QbdModel(4, 4, 1.5)).dense()
        off = Q - np.diag(np.diag(Q))
        assert off.min() >= 0

    def test_transition_rates(self):
        lam = 2.0
        g = build_generator(QbdModel(3, 3, lam))
        Q = g.dense()
        s = g.state_index
        # i > j: arrival goes to path 1 at full rate
        assert Q[s(2, 1), s(1, 1)] == lam
        assert Q[s(2, 1), s(2, 0)] == 0
        # tie: split
        assert Q[s(2, 2), s(1, 2)] == lam / 2
        assert Q[s(2, 2), s(2, 1)] == lam / 2
        # departures proportional to occupied units
        assert Q[s(1, 2), s(2, 2)] == 3 - 1
        # all idle: no departures
        assert Q[s(3, 3), s(3, 3)] == -lam  # only the tie arrivals leave

    def test_exhausted_capacity_blocks_arrivals(self):
        g = build_generator(QbdModel(2, 2, 1.0))
        Q = g.dense()
        s = g.state_index
        assert Q[s(0, 0), :].sum() == pytest.approx(Q[s(0, 0), s(0, 0)]
                                                    + Q[s(0, 0), s(1, 0)]
                                                    + Q[s(0, 0), s(0, 1)])

    @pytest.mark.parametrize("C1,C2", [(1, 1), (4, 4), (5, 2), (2, 7)])
    def test_left_product_matches_dense(self, C1, C2):
        g = build_generator(QbdModel(C1, C2, 2.8))
        # an arbitrary vector, so that every block contributes
        pi = np.random.default_rng(10 * C1 + C2).random((g.levels, g.block_size))
        want = pi.ravel() @ g.dense()
        np.testing.assert_allclose(g.left_product(pi).ravel(), want,
                                   rtol=1e-14, atol=1e-14)
        for method in ("dense", "block_tridiagonal"):
            d = solve_stationary(g, method)
            dense_residual = np.abs(d.pi.ravel() @ g.dense()).max()
            assert d.residual == pytest.approx(dense_residual, abs=1e-15)

    def test_model_validation(self):
        with pytest.raises(QbdError):
            QbdModel(0, 1, 1.0)
        with pytest.raises(QbdError):
            QbdModel(1, 1, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(QbdError):
                QbdModel(1, 1, bad)


class TestFourStateOracle:
    @pytest.mark.parametrize("method", ["dense", "block_tridiagonal"])
    def test_stationary_matches_hand_solution(self, method):
        d, u1, u2, lp, gap = solve_model(1, 1, 1.0, method=method)
        for (i, j), want in ORACLE_PI.items():
            assert d.pi[i, j] == pytest.approx(want, abs=1e-12)
        assert u1 == pytest.approx(ORACLE_U, abs=1e-12)
        assert u2 == pytest.approx(ORACLE_U, abs=1e-12)
        assert lp == pytest.approx(ORACLE_LP, abs=1e-12)
        assert gap == pytest.approx({-1: 0.2, 0: 0.6, 1: 0.2})


class TestSolvers:
    @pytest.mark.parametrize("C1,C2", [(1, 1), (5, 5), (20, 20), (5, 3), (30, 20),
                                       (7, 15), (60, 60)])
    @pytest.mark.parametrize("rho", [0.2, 1.0, 2.0])
    def test_dense_block_agree(self, C1, C2, rho):
        m = QbdModel(C1, C2, rho)
        g = build_generator(m)
        a = solve_stationary(g, "dense")
        b = solve_stationary(g, "block_tridiagonal")
        assert np.abs(a.pi - b.pi).max() < 1e-12
        assert a.residual < 1e-10 and b.residual < 1e-10
        assert a.pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_method(self):
        with pytest.raises(QbdError):
            solve_stationary(build_generator(QbdModel(1, 1, 1)), "qr")

    @pytest.mark.parametrize("C", [1, 5, 20])
    def test_swap_symmetry(self, C):
        d, u1, u2, _, gap = solve_model(C, C, 1.3)
        assert np.abs(d.pi - d.pi.T).max() < 1e-12
        assert u1 == u2
        for psi in range(1, C + 1):
            assert gap[psi] == pytest.approx(gap[-psi], abs=1e-12)

    # Cases where a symmetric pi alone still gave u1 != u2 because the two
    # marginals were reduced in different orders.
    @pytest.mark.parametrize("method, C, lam", [
        ("dense", 7, 7.0), ("dense", 15, 1.3),
        ("block_tridiagonal", 10, 7.0), ("block_tridiagonal", 8, 30.0)])
    def test_swap_symmetry_exact(self, method, C, lam):
        d, u1, u2, _, gap = solve_model(C, C, lam, method=method)
        assert (d.pi == d.pi.T).all()
        assert u1 == u2
        assert all(gap[psi] == gap[-psi] for psi in range(1, C + 1))

    @pytest.mark.parametrize("method", ["dense", "block_tridiagonal"])
    def test_overflowing_load_saturates(self, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on the way
            _, u1, u2, lp, _ = solve_model(5, 5, 1e300, method=method)
        assert (u1, u2, lp) == (1.0, 1.0, 1.0)

    def test_deep_tail_loss_underflows(self):
        # Erlang-B(200, 0.5) is about 1e-435, below the smallest double
        _, _, _, lp, _ = solve_model(100, 100, 0.5, method="block_tridiagonal")
        assert lp <= 1e-300

    def test_banded_erlang_b_past_the_dense_limit(self, erlang_b):
        offered = 800.0
        _, u1, u2, lp, _ = solve_model(100, 100, offered, method="block_tridiagonal")
        b = erlang_b(200, offered)
        assert abs(lp - b) <= 1e-12 * b + 1e-16
        carried = offered * (1 - b)
        assert abs(100 * u1 + 100 * u2 - carried) <= 1e-12 * carried

    def test_non_finite_solution_is_an_error(self, monkeypatch):
        monkeypatch.setattr(qbd, "_solve_banded", lambda g, k: np.full(g.n_states, np.nan))
        with pytest.raises(QbdError, match="non-finite"):
            solve_model(5, 5, 1.0, method="block_tridiagonal")

    @pytest.mark.parametrize("solution, message", [
        (lambda n: np.r_[-1.0, np.ones(n - 1)], "^negative stationary probability"),
        (np.ones, "^stationary residual .* exceeds tolerance$"),
    ], ids=["negative", "not-stationary"])
    def test_wrong_solution_is_an_error(self, monkeypatch, solution, message):
        monkeypatch.setattr(qbd, "_solve_banded", lambda g, k: solution(g.n_states))
        with pytest.raises(QbdError, match=message):
            solve_model(5, 3, 1.0, method="block_tridiagonal")

    def test_illegal_lapack_argument_is_an_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="^illegal value in LAPACK argument 3$"):
            qbd._check_info(-3)

    def test_dense_refused_above_the_limit(self, monkeypatch):
        def dense(self):
            raise AssertionError("the matrix must not be built")
        monkeypatch.setattr(qbd.Generator, "dense", dense)
        g = build_generator(QbdModel(64, 64, 1.0))
        assert g.n_states > qbd.DENSE_MAX_STATES
        with pytest.raises(QbdError, match="refused"):
            solve_stationary(g, "dense")

    @pytest.mark.parametrize("method", ["dense", "block_tridiagonal"])
    def test_singular_system_is_an_error(self, method):
        # with no transitions A is e_k in row k and zero elsewhere; LAPACK
        # reports the zero pivot in info, which must not pass as a solution
        g = build_generator(QbdModel(3, 2, 1.0))
        g.transitions = []
        with pytest.raises(QbdError, match="%s solve failed" % method):
            solve_stationary(g, method)

    @pytest.mark.parametrize("method, C", [("dense", 40), ("block_tridiagonal", 100)])
    def test_solve_factors_only_the_matrix_it_builds(self, method, C):
        solve_model(2, 2, 1.0, method=method)  # warm the imports
        g = build_generator(QbdModel(C, C, float(C)))
        n, w = g.n_states, g.block_size
        matrix = 8 * n * n if method == "dense" else 8 * n * (3 * w + 1)
        tracemalloc.start()
        try:
            solve_stationary(g, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * matrix, "peak %.2f x the matrix" % (peak / matrix)

    @pytest.mark.parametrize("C1,C2", [(1, 1), (5, 3), (7, 15), (30, 20), (100, 100)])
    def test_pinned_state_is_on_the_modal_level(self, C1, C2):
        c = C1 + C2
        for lam in (1e-8, 0.7, c / 3, c - 0.5, c, 2.0 * c, 1e300):
            g = build_generator(QbdModel(C1, C2, lam))
            i, j = divmod(g.pinned_state(), g.block_size)
            total = i + j
            # total occupancy is truncated Poisson(lam) on 0..c: its mode
            weight = [n * math.log(lam) - math.lgamma(n + 1) for n in range(c + 1)]
            assert weight[c - total] >= max(weight) - 1e-9
            # the most even split of total that the capacities allow
            assert abs(i - j) == min(abs(2 * s - total)
                                     for s in range(max(0, total - C2), min(C1, total) + 1))

    def test_low_load_limits(self):
        d, u1, u2, lp, _ = solve_model(4, 4, 1e-8)
        assert d.pi[4, 4] > 0.999
        assert u1 < 1e-6 and lp < 1e-12

    def test_saturation(self):
        _, u1, _, lp, _ = solve_model(2, 2, 1e4)
        assert u1 > 0.99 and lp > 0.9

    def test_utilization_monotone_in_rho(self):
        prev = 0.0
        for rho in [0.2, 0.5, 1.0, 2.0, 5.0, 10.0]:
            _, u1, _, _, _ = solve_model(5, 5, rho)
            assert u1 > prev
            prev = u1

    def test_gap_support_asymmetric(self):
        _, _, _, _, gap = solve_model(30, 20, 10.0)
        assert min(gap) == -20 and max(gap) == 30
        assert sum(gap.values()) == pytest.approx(1.0, abs=1e-12)

    def test_gap_tail_negligible_at_half_load(self):
        # rho chosen so u ~= 0.5 for C1=C2=20
        _, u1, _, _, gap = solve_model(20, 20, 20.0)
        assert 0.4 < u1 < 0.6
        tail = sum(p for psi, p in gap.items() if abs(psi) > 10)
        assert tail < 1e-3


# Join-max-available loses a flow only when both paths are full, so the total
# occupancy is an M/M/c/c loss system with c = C1 + C2: LP is Erlang-B and the
# carried load is the offered load times (1 - B).  rho is the offered load per
# unit of capacity, lambda / (C1 + C2).
@pytest.mark.parametrize("method", ["dense", "block_tridiagonal"])
@pytest.mark.parametrize("C1,C2", [(1, 1), (5, 3), (7, 15), (20, 20), (30, 20), (60, 60)])
@pytest.mark.parametrize("rho", [0.2, 0.5, 1.0, 2.0, 5.0])
def test_erlang_b_oracle(method, C1, C2, rho, erlang_b):
    offered = rho * (C1 + C2)
    _, u1, u2, lp, _ = solve_model(C1, C2, offered, method=method)
    b = erlang_b(C1 + C2, offered)
    assert abs(lp - b) <= 1e-12 * b + 1e-16
    carried = offered * (1 - b)
    assert abs(C1 * u1 + C2 * u2 - carried) <= 1e-12 * carried


@settings(max_examples=25, deadline=None)
@given(C1=st.integers(min_value=1, max_value=12),
       C2=st.integers(min_value=1, max_value=12),
       rho=st.floats(min_value=0.05, max_value=8.0))
def test_property_solvers_agree(C1, C2, rho):
    g = build_generator(QbdModel(C1, C2, rho))
    a = solve_stationary(g, "dense")
    b = solve_stationary(g, "block_tridiagonal")
    assert np.abs(a.pi - b.pi).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(C1=st.integers(min_value=1, max_value=12),
       C2=st.integers(min_value=1, max_value=12),
       lam=st.floats(min_value=1e-3, max_value=1e3))
def test_property_generator_is_the_transition_rule(C1, C2, lam):
    g = build_generator(QbdModel(C1, C2, lam))
    s = g.state_index
    want = np.zeros((g.n_states, g.n_states))
    for i in range(C1 + 1):
        for j in range(C2 + 1):
            # an arrival joins the path with more available capacity
            if i > j:
                want[s(i, j), s(i - 1, j)] = lam
            elif j > i:
                want[s(i, j), s(i, j - 1)] = lam
            elif i > 0:
                want[s(i, j), s(i - 1, j)] = lam / 2
                want[s(i, j), s(i, j - 1)] = lam / 2
            # each occupied unit frees up at rate 1
            if i < C1:
                want[s(i, j), s(i + 1, j)] = C1 - i
            if j < C2:
                want[s(i, j), s(i, j + 1)] = C2 - j
    Q = g.dense()
    off = ~np.eye(g.n_states, dtype=bool)
    assert (Q[off] == want[off]).all()
    assert np.abs(Q.sum(axis=1)).max() <= 1e-12 * max(lam, C1 + C2)


class TestMetrics:
    def test_utilization_definition(self):
        # C1 = 3 and C2 = 2 come from the shape of pi
        d = solve_stationary(build_generator(QbdModel(3, 2, 1.0)))
        u1 = float(((3 - np.arange(4)) * d.pi.sum(axis=1)).sum() / 3)
        u2 = float(((2 - np.arange(3)) * d.pi.sum(axis=0)).sum() / 2)
        assert utilization(d) == pytest.approx((u1, u2))

    def test_loss_is_corner_state(self):
        d = solve_stationary(build_generator(QbdModel(3, 2, 4.0)))
        assert loss_probability(d) == d.pi[0, 0]

    @pytest.mark.parametrize("method, C1, C2, lam", [
        ("dense", 60, 60, 30.0), ("dense", 7, 15, 9.0), ("dense", 30, 20, 40.0),
        ("block_tridiagonal", 60, 60, 30.0), ("block_tridiagonal", 7, 15, 9.0),
        ("block_tridiagonal", 30, 20, 40.0), ("block_tridiagonal", 100, 100, 150.0),
        ("block_tridiagonal", 100, 100, 220.0)])
    def test_gap_matches_diagonal_loop_bitwise(self, method, C1, C2, lam):
        d = solve_stationary(build_generator(QbdModel(C1, C2, lam)), method)
        n1, n2 = d.pi.shape
        want = {}
        for psi in range(-(n2 - 1), n1):
            total = 0.0
            for i in range(n1):
                j = i - psi
                if 0 <= j < n2:
                    total += d.pi[i, j]
            want[psi] = total
        got = gap_distribution(d)
        assert list(got) == list(want)
        assert all(float(got[psi]).hex() == float(want[psi]).hex() for psi in want)

    def test_gap_marginalizes_pi(self):
        d = solve_stationary(build_generator(QbdModel(3, 2, 1.0)))
        gap = gap_distribution(d)
        assert gap[3] == pytest.approx(float(d.pi[3, 0]))
        assert gap[-2] == pytest.approx(float(d.pi[0, 2]))
        assert gap[1] == pytest.approx(float(d.pi[1, 0]) + float(d.pi[2, 1])
                                       + float(d.pi[3, 2]))


class TestBenchmarkTracer:
    def test_tracer_fits_the_qbd_spans(self, monkeypatch):
        # the benchmark's tracer patches qbd names from outside; a dense solve
        # that stops calling Generator.dense, or a renamed one, fails here
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import tracing

        from allpath import balance, cli, protocol, scalability, simnet, topology

        api = SimpleNamespace(balance=balance, cli=cli, protocol=protocol, qbd=qbd,
                              scalability=scalability, simnet=simnet, topology=topology)
        tracer = tracing.Tracer()
        tracing.install(tracer, api)
        try:
            for method in ("dense", "block_tridiagonal"):
                solve_model(5, 5, 2.0, method=method)
        finally:
            tracer.unpatch()
        metrics = tracing.layer_metrics(tracer.spans)
        assert metrics["qbd.dense_matrix_bytes"] == 8 * 36 ** 2
        assert metrics["qbd.solve_dense_s"] > 0
        assert metrics["qbd.solve_block_s"] > 0
