"""Two-path join-max-available-capacity CTMC: generator, stationary solve,
utilizations, loss probability, and the available-capacity gap distribution.

State (i, j) holds the *available* capacity of each path.  An arriving flow
takes a unit from the path with more available capacity (rate lambda), or
from either with rate lambda/2 on a tie; the C_k - s_k occupied units on
path k each free up at rate 1.  The time unit is the mean holding time, so
lambda is the offered load.  An arrival in state (0, 0) finds no
transition enabled and is lost.

`Generator` holds the rates of this rule as arrays over the states, built
once, and lists the chain's five transitions once.  Both solvers solve the
same linear system A x = e_k: A is Q^T with row k replaced by e_k, where k
is a state on the modal occupancy level, so that x = pi / pi_k stays in
range; pi is x / sum(x).  Ordered by levels i = 0..C1, A is banded with
half-bandwidth C2 + 1.  Each solver builds one matrix and LAPACK factors it
in place: `block_tridiagonal` (the default) stores the band, with the rows
for fill-in, and runs `dgbsv`; `dense` fills the whole matrix, runs
`dgetrf`, and is kept as a small-model oracle, refused above
DENSE_MAX_STATES states.

Swap invariant: for C1 == C2 the generator is unchanged by relabelling the
paths, (i, j) -> (j, i) (a tie gives lambda/2 to each path, departures run
at C - s on each), and the chain is irreducible, so the exact pi is
symmetric.  `solve_stationary` returns pi with pi == pi.T elementwise and
`utilization` returns u1 == u2 exactly, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SOLVER_TOL = 1e-10
DENSE_MAX_STATES = 4096  # a 128 MiB matrix, the dense solve's whole footprint; C = 60 has 3,721


class QbdError(ValueError):
    pass


@dataclass
class QbdModel:
    C1: int
    C2: int
    lam: float  # arrivals per mean holding time

    def __post_init__(self):
        if self.C1 < 1 or self.C2 < 1:
            raise QbdError("capacities must be >= 1")
        if not 0 < self.lam < math.inf:
            raise QbdError("lambda must be finite and positive")


def _take_rate(s, other, lam):
    """Rate at which an arrival takes a unit from the path with s available
    when the other path has `other` available: lam, lam/2 on a tie, else 0."""
    return np.where(s > other, lam, np.where((s == other) & (s > 0), lam / 2, 0.0))


class Generator:
    """The rates of the chain as (C1+1, C2+1) arrays indexed by state (i, j).

    take1: arrivals taking a unit from path 1, to state (i-1, j);
    take2: arrivals taking a unit from path 2, to state (i, j-1);
    free1: departures on path 1, C1 - i, to state (i+1, j);
    free2: departures on path 2, C2 - j, to state (i, j+1);
    diag: the diagonal of Q, minus the sum of the other four.

    `transitions` lists these five as (rate, source, target) triples of
    equal-shape arrays, Q[source, target] = rate elementwise, with the flat
    state indices in level order.  Every use of Q reads this one list.
    """

    def __init__(self, model: QbdModel):
        self.model = model
        C1, C2, lam = model.C1, model.C2, model.lam
        self.block_size = C2 + 1
        self.levels = C1 + 1
        i, j = np.indices((self.levels, self.block_size))
        self.take1 = _take_rate(i, j, lam)
        self.take2 = _take_rate(j, i, lam)
        self.free1 = (C1 - i).astype(float)
        self.free2 = (C2 - j).astype(float)
        # this order of summation fixes the last bit of every solve
        self.diag = -(((self.take2 + self.free2) + self.free1) + self.take1)
        s = self.state_index(i, j)
        # the order of this list fixes the last bit of left_product
        self.transitions = [
            (self.diag, s, s),
            (self.take1[1:], s[1:], s[:-1]),
            (self.take2[:, 1:], s[:, 1:], s[:, :-1]),
            (self.free1[:-1], s[:-1], s[1:]),
            (self.free2[:, :-1], s[:, :-1], s[:, 1:]),
        ]

    @property
    def n_states(self):
        return self.levels * self.block_size

    def state_index(self, i, j):
        return i * self.block_size + j

    def pinned_state(self):
        """Flat index of a state on the modal occupancy level.

        Total occupancy is an M/M/c/c loss system with c = C1 + C2, whose
        mode is floor(lam) capped at c; join-max keeps the two paths'
        available capacities as even as the capacities allow.
        """
        m = self.model
        total = m.C1 + m.C2 - int(min(m.lam, m.C1 + m.C2))
        i = min(m.C1, max(total - m.C2, total // 2))
        return self.state_index(i, total - i)

    def left_product(self, pi):
        """pi Q for pi of shape (levels, block_size); Q itself, 8 * n_states**2
        bytes, is never formed."""
        flat = pi.ravel()
        out = np.zeros(self.n_states)
        for rate, src, tgt in self.transitions:
            out[tgt] += flat[src] * rate
        return out.reshape(pi.shape)

    def dense(self):
        """The full rate matrix, for the dense solve and for tests."""
        Q = np.zeros((self.n_states, self.n_states))
        for rate, src, tgt in self.transitions:
            Q[src, tgt] = rate
        return Q


@dataclass
class StationaryDistribution:
    pi: np.ndarray  # shape (C1+1, C2+1), pi[i, j] = P(available = (i, j))
    residual: float


def build_generator(model: QbdModel) -> Generator:
    return Generator(model)


def _check_info(info):
    """The LAPACK wrappers report failure in info and do not raise: info > 0
    is a zero pivot of the LU, info < 0 an illegal argument."""
    if info:
        raise np.linalg.LinAlgError("singular matrix" if info > 0 else
                                    "illegal value in LAPACK argument %d" % -info)


def _solve_dense(g: Generator, k: int) -> np.ndarray:
    if g.n_states > DENSE_MAX_STATES:
        raise QbdError("dense solve refused: %d states, above the limit of %d"
                       % (g.n_states, DENSE_MAX_STATES))
    from scipy.linalg.lapack import dgetrf, dgetrs  # a cold import costs about 0.3 s

    A = g.dense().T  # Q is C-ordered, so Q^T is a Fortran-ordered view: no copy
    A[k] = 0.0
    A[k, k] = 1.0
    lu, piv, info = dgetrf(A, overwrite_a=True)
    _check_info(info)
    x, info = dgetrs(lu, piv, np.eye(1, g.n_states, k)[0], overwrite_b=True)
    _check_info(info)
    return x


def _solve_banded(g: Generator, k: int) -> np.ndarray:
    """The same system in LAPACK band storage, ab[2w + r - c, c] = A[r, c]; the
    top w rows are the room gbsv needs for the fill-in of row interchanges."""
    from scipy.linalg.lapack import dgbsv  # a cold import costs about 0.3 s

    w, n = g.block_size, g.n_states  # level order: (i +- 1, j) is w states away
    ab = np.zeros((3 * w + 1, n), order="F")
    for rate, src, tgt in g.transitions:
        ab[2 * w + tgt - src, src] = rate  # A[tgt, src] = Q[src, tgt]
    c = np.arange(max(0, k - w), min(n, k + w + 1))
    ab[2 * w + k - c, c] = 0.0
    ab[2 * w, k] = 1.0
    _, _, x, info = dgbsv(w, w, ab, np.eye(1, n, k)[0], overwrite_ab=True, overwrite_b=True)
    _check_info(info)
    return x


def solve_stationary(g: Generator, method="block_tridiagonal") -> StationaryDistribution:
    """Stationary distribution of the chain, reshaped to (C1+1, C2+1).

    For C1 == C2 the solved pi is replaced by (pi + pi.T) / 2.  The unique
    stationary vector is symmetric (see the module docstring), so this
    projection onto symmetric matrices keeps the exact solution fixed and can
    only shrink the solver's rounding error; a + b == b + a in floating point,
    so the result is symmetric bit for bit.  The residual is checked on the
    pi that is returned.
    """
    if method == "dense":
        solve = _solve_dense
    elif method == "block_tridiagonal":
        solve = _solve_banded
    else:
        raise QbdError("unknown method %r" % (method,))
    try:
        pi = solve(g, g.pinned_state())
    except np.linalg.LinAlgError as exc:
        raise QbdError("%s solve failed: %s" % (method, exc)) from exc
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


def utilization(d: StationaryDistribution):
    """Mean occupied fraction per path; C1 and C2 are read from d.pi's shape.

    Both marginals are taken as row sums of a C-contiguous array: numpy sums
    a contiguous row with unrolled partial sums but runs down columns one
    element at a time, so pi.sum(axis=0) can differ in the last bit from the
    row sums of pi.T.  With the same reduction a symmetric pi (C1 == C2)
    gives u1 == u2 exactly.
    """
    C1, C2 = d.pi.shape[0] - 1, d.pi.shape[1] - 1
    i = np.arange(C1 + 1)
    j = np.arange(C2 + 1)
    p1 = d.pi.sum(axis=1)
    p2 = np.ascontiguousarray(d.pi.T).sum(axis=1)
    u1 = float(((C1 - i) * p1).sum() / C1)
    u2 = float(((C2 - j) * p2).sum() / C2)
    return u1, u2


def gap_distribution(d: StationaryDistribution):
    """P(available capacity gap s1 - s2 = psi) for psi in [-C2, C1].

    Each diagonal of pi is summed in increasing i, starting from 0.0."""
    n1, n2 = d.pi.shape
    i, j = np.indices((n1, n2))
    p = np.bincount((i - j + n2 - 1).ravel(), weights=d.pi.ravel())
    return dict(zip(range(-(n2 - 1), n1), p.tolist()))


def loss_probability(d: StationaryDistribution) -> float:
    """Poisson arrivals see time averages: LP = P(both paths full)."""
    return float(d.pi[0, 0])


def solve_model(C1, C2, lam, method="block_tridiagonal"):
    """Convenience: model -> (distribution, u1, u2, LP, gap)."""
    d = solve_stationary(build_generator(QbdModel(C1, C2, lam)), method=method)
    u1, u2 = utilization(d)
    return d, u1, u2, loss_probability(d), gap_distribution(d)
