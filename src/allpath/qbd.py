"""Two-path join-max-available-capacity CTMC: generator, stationary solve,
utilizations, loss probability, and the available-capacity gap distribution.

State (i, j) holds the *available* capacity of each path.  An arriving flow
takes a unit from the path with more available capacity (rate lambda), or
from either with rate lambda/2 on a tie; the C_k - s_k occupied units on
path k each free up at rate mu.  An arrival in state (0, 0) finds no
transition enabled and is lost.

`Generator` holds the rates of this rule as arrays over the states, built
once.  Ordered by levels i = 0..C1, Q is block tridiagonal with blocks of
size (C2+1); the block solver does forward block elimination and back
substitution, the dense solver is a plain linear solve.  Both must agree.

Swap invariant: for C1 == C2 the generator is unchanged by relabelling the
paths, (i, j) -> (j, i) (a tie gives lambda/2 to each path, departures run
at (C - s) mu on each), and the chain is irreducible, so the exact pi is
symmetric.  `solve_stationary` returns pi with pi == pi.T elementwise and
`utilization` returns u1 == u2 exactly, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SOLVER_TOL = 1e-10


class QbdError(ValueError):
    pass


@dataclass
class QbdModel:
    C1: int
    C2: int
    lam: float
    mu: float

    def __post_init__(self):
        if self.C1 < 1 or self.C2 < 1:
            raise QbdError("capacities must be >= 1")
        if not (0 < self.lam < math.inf and 0 < self.mu < math.inf):
            raise QbdError("lambda and mu must be finite and positive")


def _take_rate(s, other, lam):
    """Rate at which an arrival takes a unit from the path with s available
    when the other path has `other` available: lam, lam/2 on a tie, else 0."""
    return np.where(s > other, lam, np.where((s == other) & (s > 0), lam / 2, 0.0))


class Generator:
    """The rates of the chain as (C1+1, C2+1) arrays indexed by state (i, j).

    take1: arrivals taking a unit from path 1, to state (i-1, j);
    take2: arrivals taking a unit from path 2, to state (i, j-1);
    free1: departures on path 1, (C1 - i) mu, to state (i+1, j);
    free2: departures on path 2, (C2 - j) mu, to state (i, j+1);
    diag: the diagonal of Q, minus the sum of the other four.

    Ordered by levels i, Q is block tridiagonal: the diagonal blocks D_i are
    tridiagonal (`block`), the blocks to level i+1 are diag(free1[i]) and the
    blocks to level i-1 are diag(take1[i]).
    """

    def __init__(self, model: QbdModel):
        self.model = model
        C1, C2, lam, mu = model.C1, model.C2, model.lam, model.mu
        self.block_size = C2 + 1
        self.levels = C1 + 1
        i, j = np.indices((self.levels, self.block_size))
        self.take1 = _take_rate(i, j, lam)
        self.take2 = _take_rate(j, i, lam)
        self.free1 = (C1 - i) * mu
        self.free2 = (C2 - j) * mu
        # this order of summation fixes the last bit of every solve
        self.diag = -(((self.take2 + self.free2) + self.free1) + self.take1)

    @property
    def n_states(self):
        return self.levels * self.block_size

    def state_index(self, i, j):
        return i * self.block_size + j

    def block(self, i):
        """D_i, the within-level block of Q at level i."""
        return (np.diag(self.diag[i]) + np.diag(self.take2[i, 1:], -1)
                + np.diag(self.free2[i, :-1], 1))

    def left_product(self, pi):
        """pi Q for pi of shape (levels, block_size); Q itself, 8 * n_states**2
        bytes, is never formed."""
        out = pi * self.diag
        out[:-1] += pi[1:] * self.take1[1:]
        out[:, :-1] += pi[:, 1:] * self.take2[:, 1:]
        out[1:] += pi[:-1] * self.free1[:-1]
        out[:, 1:] += pi[:, :-1] * self.free2[:, :-1]
        return out

    def dense(self):
        """The full rate matrix, for the dense solve and for tests."""
        s = np.arange(self.n_states).reshape(self.levels, self.block_size)
        Q = np.zeros((self.n_states, self.n_states))
        Q[s, s] = self.diag
        Q[s[1:], s[:-1]] = self.take1[1:]
        Q[s[:, 1:], s[:, :-1]] = self.take2[:, 1:]
        Q[s[:-1], s[1:]] = self.free1[:-1]
        Q[s[:, :-1], s[:, 1:]] = self.free2[:, :-1]
        return Q


@dataclass
class StationaryDistribution:
    pi: np.ndarray  # shape (C1+1, C2+1), pi[i, j] = P(available = (i, j))
    residual: float


def build_generator(model: QbdModel) -> Generator:
    return Generator(model)


def _solve_dense(g: Generator) -> np.ndarray:
    A = g.dense().T.copy()  # Q is freed here, before LAPACK copies A
    A[-1, :] = 1.0
    rhs = np.zeros(g.n_states)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise QbdError("dense solve failed: %s" % exc) from exc
    return pi


def _solve_block(g: Generator) -> np.ndarray:
    """Forward block elimination over levels, then back substitution.

    With L_i = diag(take1[i]) and M_i = diag(free1[i]), eliminating level
    columns left to right gives U_0 = D_0 and U_i = D_i - L_i U_{i-1}^{-1}
    M_{i-1}; the top-level balance leaves pi_K U_K = 0, solved as a small
    left null space.  U fills in, so it is dense; products with L and M are
    row and column scalings.
    """
    U = [g.block(0)]
    for i in range(1, g.levels):
        try:
            # L_i @ inv(U_{i-1}); row-scaling inv(U_{i-1}) instead would
            # round differently
            X = np.linalg.solve(U[i - 1].T, np.diag(g.take1[i])).T
        except np.linalg.LinAlgError as exc:
            raise QbdError("singular elimination step at level %d" % i) from exc
        U.append(g.block(i) - X * g.free1[i - 1])

    _, s, vh = np.linalg.svd(U[-1].T)
    if s[-2] < 1e-8 * max(s[0], 1.0):
        raise QbdError("top-level block has a degenerate null space")
    pi_top = vh[-1]
    levels = [pi_top]
    for i in range(g.levels - 2, -1, -1):
        # pi_i = -pi_{i+1} L_{i+1} U_i^{-1}
        rhs = -(levels[0] * g.take1[i + 1])
        levels.insert(0, np.linalg.solve(U[i].T, rhs))
    pi = np.concatenate(levels)
    total = pi.sum()
    if abs(total) < 1e-300:
        raise QbdError("null vector normalization failed")
    pi = pi / total
    return pi


def solve_stationary(g: Generator, method="dense") -> StationaryDistribution:
    """Stationary distribution of the chain, reshaped to (C1+1, C2+1).

    For C1 == C2 the solved pi is replaced by (pi + pi.T) / 2.  The unique
    stationary vector is symmetric (see the module docstring), so this
    projection onto symmetric matrices keeps the exact solution fixed and can
    only shrink the solver's rounding error; a + b == b + a in floating point,
    so the result is symmetric bit for bit.  The residual is checked on the
    pi that is returned.
    """
    if method == "dense":
        pi = _solve_dense(g)
    elif method == "block_tridiagonal":
        pi = _solve_block(g)
    else:
        raise QbdError("unknown method %r" % (method,))
    if not np.isfinite(pi).all():
        raise QbdError("stationary solve gave non-finite probabilities")
    if pi.min() < -1e-9:
        raise QbdError("negative stationary probability (non-irreducible chain?)")
    pi = np.clip(pi, 0.0, None)
    pi = (pi / pi.sum()).reshape(g.levels, g.block_size)
    if g.model.C1 == g.model.C2:
        pi = (pi + pi.T) / 2
    residual = float(np.abs(g.left_product(pi)).max())
    if not residual <= SOLVER_TOL:  # a NaN residual fails too
        raise QbdError("stationary residual %.3g exceeds tolerance" % residual)
    return StationaryDistribution(pi=pi, residual=residual)


def utilization(d: StationaryDistribution, m: QbdModel):
    """Mean occupied fraction per path.

    Both marginals are taken as row sums of a C-contiguous array: numpy sums
    a contiguous row with unrolled partial sums but runs down columns one
    element at a time, so pi.sum(axis=0) can differ in the last bit from the
    row sums of pi.T.  With the same reduction a symmetric pi (C1 == C2)
    gives u1 == u2 exactly.
    """
    i = np.arange(m.C1 + 1)
    j = np.arange(m.C2 + 1)
    p1 = d.pi.sum(axis=1)
    p2 = np.ascontiguousarray(d.pi.T).sum(axis=1)
    u1 = float(((m.C1 - i) * p1).sum() / m.C1)
    u2 = float(((m.C2 - j) * p2).sum() / m.C2)
    return u1, u2


def gap_distribution(d: StationaryDistribution):
    """P(available capacity gap s1 - s2 = psi) for psi in [-C2, C1]."""
    n1, n2 = d.pi.shape
    out = {}
    for psi in range(-(n2 - 1), n1):
        total = 0.0
        for i in range(n1):
            j = i - psi
            if 0 <= j < n2:
                total += d.pi[i, j]
        out[psi] = total
    return out


def loss_probability(d: StationaryDistribution) -> float:
    """Poisson arrivals see time averages: LP = P(both paths full)."""
    return float(d.pi[0, 0])


def solve_model(C1, C2, lam, mu, method="dense"):
    """Convenience: model -> (distribution, u1, u2, LP, gap)."""
    m = QbdModel(C1, C2, lam, mu)
    d = solve_stationary(build_generator(m), method=method)
    u1, u2 = utilization(d, m)
    return d, u1, u2, loss_probability(d), gap_distribution(d)
