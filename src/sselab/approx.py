"""Moment-closure ODE approximations of the mean fidelity (OU noise).

Closing the observable hierarchy with E[X^2 V] ~ E[X^2] E[V] at first
order (3 components) or one level deeper at second order (6 components)
gives linear ODE systems x' = M(t) x whose coefficients depend on t only
through E[X_t^2].  They are integrated by classical RK4 on a fixed grid;
the fidelity is the first component.  The first order conserves F + G
and settles at (1 + s0^2)/2, so it stays inside [0, 1]; the second
order is closer at early times but leaves [0, 1] later (near t = 43.7 at
gamma = 0.2, k = 0.1, s0 = 0).  Acceptance criterion 2 expects the
reverse, and stays failing until the paper's closure is pinned down.

The components are real observables (F, G, E[X F'], ...), so each
closure matrix M(t) = A + c(t) B is real, with c(t) = p or q and B zero
but for 2, -2 in its last row.  Each RK4 step is a fixed matrix P_i, and
P_i - I is a polynomial in c(t_i), c(t_i + h/2) and c(t_i + h) in which,
as B has rank one and B^2 = 0, only 7 monomials survive.  Their
coefficients are expanded once, and a chunk's step matrices are their
(n, 7) @ (7, d^2) product, taken as one small GEMM per step of a block
(OpenBLAS threads one 4096-row GEMM, and on a loaded 2-core machine that
took 8 ms against 0.08 ms for the 64 small ones).  I is added after it,
as an I in the constant coefficient would round I + hA alike on every
step and bias a long scan.  The recurrence x_{i+1} = P_i x_i is a
blocked prefix product over about sqrt(n) blocks of about sqrt(n) steps:
one batched matmul per step of a block, one matvec per block to chain
the block ends, and one batched product for every step's first
component.  The working set is one chunk of at most 4096 steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod

DEFAULT_DT = 1e-3
# Steps per chunk: long enough that its ~2 sqrt(n) numpy calls amortise,
# short enough that a second-order chunk's step matrices stay at 1.2 MB
# (4096 x 36 x 8 B).
_CHUNK = 4096
# B's last row: 2, -2 in columns dim-3, dim-2
_B_ROW = np.array([2.0, -2.0])


@dataclass(frozen=True)
class ClosureSystem:
    """x' = M(t) x with M(t) = a + c(t) B."""
    a: np.ndarray
    c_fn: object        # time array -> c(t), the same shape
    v0: np.ndarray


@dataclass(frozen=True)
class ClosureSeries:
    """imag_residue is always 0.0, as the scan is real; it stays only
    because the benchmark harness reads it."""
    times: np.ndarray
    fidelity: np.ndarray
    imag_residue: float


def _system(gamma, k, s0, a):
    """The closure with matrix a; order len(a) // 3 sets c(t) = k E[X_t^2]
    - order gamma^2, with E[X_t^2] for a path started at 0 the variance of
    its increment."""
    model, shift = noise_mod.ou_noise(gamma, k), len(a) // 3 * gamma**2
    v0 = np.zeros(len(a))
    v0[:2] = 1.0, s0**2
    return ClosureSystem(a=np.array(a, dtype=float), v0=v0,
                         c_fn=lambda t: k * noise_mod.increment_variance(model, t) - shift)


def first_order_system(gamma, k, s0):
    """The 3-component closure; c(t) = p(t) = k E[X_t^2] - gamma^2."""
    g2 = gamma**2
    return _system(gamma, k, s0, [
        [-g2, g2, -k],
        [g2, -g2, k],
        [0, 0, -(k + 2 * g2)],
    ])


def second_order_system(gamma, k, s0):
    """The 6-component closure; c(t) = q(t) = k E[X_t^2] - 2 gamma^2."""
    g2 = gamma**2
    return _system(gamma, k, s0, [
        [-g2, g2, -k, 0, 0, 0],
        [g2, -g2, k, 0, 0, 0],
        [-2 * g2, 2 * g2, -(k + 2 * g2), 2 * k, -2 * k, 0],
        [g2, 0, 2 * g2, -(2 * k + g2), g2, -k],
        [0, g2, -2 * g2, g2, -(2 * k + g2), k],
        [0, 0, 2 * g2, 0, 0, -(3 * k + 2 * g2)],
    ])


def _step_coefficients(a, b, h):
    """RK4's P - I for x' = (a + c(t) b) x as an (8, d, d) polynomial:
    entry m multiplies the product of c(t), c(t + h/2), c(t + h) over
    the bits set in m."""
    k = np.zeros((8,) + a.shape)
    k[0], k[1] = a, b  # K1 = M(t)
    p = k.copy()
    for bit, s, w in ((1, 0.5 * h, 2), (1, 0.5 * h, 2), (2, h, 1)):  # K2, K3, K4
        y = s * k
        y[0] += np.eye(len(a))
        # K = M(t + s) y: b y moves each monomial up by c(t + s); one that
        # holds it already came from an earlier b y, and b b = 0
        k = a @ y
        free = [m for m in range(8) if not m >> bit & 1]
        k[[m | 1 << bit for m in free]] += b @ y[free]
        p += w * k
    return (h / 6.0) * p


def integrate_closure(system, T, dt=DEFAULT_DT):
    """Classical RK4 on x' = M(t) x: the mean-fidelity series x_1(t_i)."""
    if not (0.0 <= T < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"need a finite T >= 0 and dt > 0, got T={T!r}, dt={dt!r}")
    n_steps = int(round(T / dt))
    if abs(T / dt - n_steps) > 1e-9 * max(1.0, T / dt):
        raise ValueError("T/dt must be an integer")
    x = system.v0
    d = len(x)
    b = np.zeros((d, d))
    b[-1, -3:-1] = _B_ROW
    # the c(t) c(t + h/2) c(t + h) coefficient is b (..) b b (..) = 0
    coef = _step_coefficients(system.a, b, dt)[:7].reshape(7, d * d)
    first = np.full(n_steps + 1, x[0])
    for start in range(0, n_steps, _CHUNK):
        n = min(_CHUNK, n_steps - start)
        size = math.isqrt(n - 1) + 1  # steps per block, ceil(sqrt(n))
        blocks = -(-n // size)
        # step blk * size + j sits at [j, blk], so each matmul spans every
        # block; the last block's tail steps past the chunk are discarded
        t = (start + np.arange(size * blocks).reshape(blocks, size).T.ravel()) * dt
        w = np.ones((len(t), 7))
        for bit, s in enumerate((0.0, 0.5 * dt, dt)):
            w[:, [m for m in range(7) if m >> bit & 1]] *= system.c_fn(t + s)[:, None]
        q = np.matmul(w.reshape(size, blocks, 7), coef).reshape(size, blocks, d, d)
        q.reshape(size, blocks, d * d)[:, :, ::d + 1] += 1.0
        for j in range(1, size):
            q[j] = q[j] @ q[j - 1]
        starts = np.empty((blocks, d))
        starts[0] = x
        for blk in range(1, blocks):
            starts[blk] = q[-1, blk - 1] @ starts[blk - 1]
        first[start + 1:start + n + 1] = np.einsum("jbk,bk->bj", q[:, :, 0], starts).ravel()[:n]
        x = q[(n - 1) % size, (n - 1) // size] @ starts[(n - 1) // size]
        del q, w  # so that the next chunk's stacks replace these, not join them
    return ClosureSeries(times=np.arange(n_steps + 1) * dt, fidelity=first, imag_residue=0.0)
