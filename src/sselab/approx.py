"""Moment-closure ODE approximations of the mean fidelity (OU noise).

Closing the observable hierarchy with E[X^2 V] ~ E[X^2] E[V] at first
order (3 components) or one level deeper at second order (6 components)
gives linear ODE systems x' = M(t) x whose coefficients depend on t only
through E[X_t^2].  They are integrated verbatim in complex arithmetic by
classical RK4 on a fixed grid; the fidelity is the real part of the
first component and the leftover imaginary magnitude is reported as a
diagnostic.  The first order conserves F + G and settles at
(1 + s0^2)/2, so it stays inside [0, 1]; the second order is closer at
early times but leaves [0, 1] later (near t = 43.7 at gamma = 0.2,
k = 0.1, s0 = 0).  Acceptance criterion 2 expects the reverse, and
stays failing until the paper's closure is pinned down.

Each closure matrix is M(t) = A + c(t) B, where c(t) is p or q and B
is zero but for 2i, -2i in its last row.  As the system is linear, each
RK4 step is a fixed matrix P_i = I + (h/6)(K1 + 2 K2 + 2 K3 + K4) with
K1 = M(t_i), K2 = M(t_i + h/2)(I + (h/2) K1), and so on.  The scan builds
256 of them at a time as one (d, n, d) stack, so each product by M is one
2-D GEMM by A plus one scaled row.  The chunk's x_{i+1} = P_i x_i is the
unit lower-triangular system [I; -P_0 I; -P_1 I; ...] z = [x_0; 0; ...]
of bandwidth 2d - 1, which one LAPACK call solves by forward substitution
(O(n d^2), the loop's own arithmetic).  The working set is one chunk.
`integrate_closure` imports that LAPACK routine from `scipy.linalg`
when called, so importing this module does not load scipy.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_DT = 1e-3
# Steps per batched pass: long enough to amortise the numpy calls, short
# enough that a chunk's 6x6 stacks and band stay near 1.2 MB.
_CHUNK = 256
# B's nonzero entries, in columns dim-3 and dim-2 of its last row
_B_ROW = np.array([2j, -2j])


@dataclass(frozen=True)
class ClosureSystem:
    """x' = M(t) x with M(t) = a + c(t) B."""
    order: int
    a: np.ndarray
    c_fn: object        # time array -> c(t), the same shape
    v0: np.ndarray

    def matrix_fn(self, t):
        """M(t); a stack of them, shape t.shape + (dim, dim), for a time array."""
        c = np.asarray(self.c_fn(t))
        m = np.broadcast_to(self.a, c.shape + self.a.shape).copy()
        m[..., -1, -3:-1] = c[..., None] * _B_ROW  # a is zero there
        return m


@dataclass(frozen=True)
class ClosureSeries:
    times: np.ndarray
    fidelity: np.ndarray
    imag_residue: float


def noise_second_moment(t, gamma, k):
    """E[X_t^2] for an OU path started at 0; k = 0 limit is gamma^2 t.

    t may be a scalar or an array; the result has its shape.
    """
    if k == 0.0:
        return gamma**2 * t
    return -np.expm1(-2 * k * t) * gamma**2 / (2 * k)


def first_order_system(gamma, k, s0):
    """The 3-component closure; c(t) = p(t) = k E[X_t^2] - gamma^2."""
    g2 = gamma**2
    a = np.array([
        [-g2, g2, 1j * k],
        [g2, -g2, -1j * k],
        [0, 0, -(k + 2 * g2)],
    ], dtype=complex)
    return ClosureSystem(
        order=1, a=a, c_fn=lambda t: k * noise_second_moment(t, gamma, k) - g2,
        v0=np.array([1.0, s0**2, 0.0], dtype=complex),
    )


def second_order_system(gamma, k, s0):
    """The 6-component closure; c(t) = q(t) = k E[X_t^2] - 2 gamma^2."""
    g2 = gamma**2
    a = np.array([
        [-g2, g2, 1j * k, 0, 0, 0],
        [g2, -g2, -1j * k, 0, 0, 0],
        [-2j * g2, 2j * g2, -(k + 2 * g2), 2j * k, -2j * k, 0],
        [g2, 0, -2j * g2, -(2 * k + g2), g2, 1j * k],
        [0, g2, 2j * g2, g2, -(2 * k + g2), -1j * k],
        [0, 0, 2 * g2, 0, 0, -(3 * k + 2 * g2)],
    ], dtype=complex)
    return ClosureSystem(
        order=2, a=a, c_fn=lambda t: k * noise_second_moment(t, gamma, k) - 2 * g2,
        v0=np.array([1.0, s0**2, 0.0, 0.0, 0.0, 0.0], dtype=complex),
    )


def _step_matrices(system, t, h):
    """The classical RK4 step of x' = M(t) x from each time in t, as a
    (dim, n, dim) stack P with x(t_i + h) = P[:, i, :] x(t_i)."""
    d, n = len(system.a), len(t)
    diag = np.arange(d), slice(None), np.arange(d)

    def times_m(s, y):
        """M(t_i + s) y_i for every i: one GEMM by a, and B's one row."""
        flat = y.reshape(d, n * d)
        my = (system.a @ flat).reshape(d, n, d)
        my[-1] += system.c_fn(t + s)[:, None] * (_B_ROW @ flat[-3:-1]).reshape(n, d)
        return my

    def plus_eye(y):
        y[diag] += 1.0
        return y

    k = np.ascontiguousarray(system.matrix_fn(t).transpose(1, 0, 2))
    p = k.copy()
    for s, w in ((0.5 * h, 2), (0.5 * h, 2), (h, 1)):  # K2, K3, K4
        k = times_m(s, plus_eye(s * k))
        p += w * k
    p *= h / 6.0
    return plus_eye(p)


def integrate_closure(system, T, dt=DEFAULT_DT):
    """Classical RK4 on x' = M(t) x; returns the mean-fidelity series.

    fidelity[i] = Re x_1(t_i); imag_residue = max_t |Im x_1(t)|.
    """
    from scipy.linalg import lapack  # here, so commuting runs never load scipy.linalg

    if not (0.0 <= T < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"need a finite T >= 0 and dt > 0, got T={T!r}, dt={dt!r}")
    n_steps = int(round(T / dt))
    if abs(T / dt - n_steps) > 1e-9 * max(1.0, T / dt):
        raise ValueError("T/dt must be an integer")
    d = len(system.v0)
    x = system.v0.astype(complex)
    first = np.empty(n_steps + 1, dtype=complex)
    first[0] = x[0]
    for start in range(0, n_steps, _CHUNK):
        stop = min(start + _CHUNK, n_steps)
        n = stop - start
        P = _step_matrices(system, np.arange(start, stop) * dt, dt)
        # lower band storage of [I; -P_0 I; ...]: row j = i d + b holds the
        # entries o = 0..2d-1 below the diagonal of column j; -P_i[a, b] is
        # at o = d + a - b, entry d + b (2d - 1) + a of block row i
        band = np.zeros((n + 1, 2 * d * d), dtype=complex)
        band[:n, d:].reshape(n, d, 2 * d - 1, copy=False)[:, :, :d] = -P.transpose(1, 2, 0)
        rhs = np.concatenate([x, np.zeros(n * d)])[:, None]
        # info is nonzero only for a bad argument: the diagonal is unit
        z = lapack.ztbtrs(band.reshape(-1, 2 * d).T, rhs, uplo="L", diag="U")[0]
        first[start + 1:stop + 1] = z[d::d, 0]
        x = z[-d:, 0]
    return ClosureSeries(
        times=np.arange(n_steps + 1) * dt,
        fidelity=first.real.copy(),
        imag_residue=float(np.abs(first.imag[1:]).max(initial=0.0)),
    )
