import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sselab import approx, laws, noise

import oracles


def exact_pauli_mean(ts, gamma, k, s0):
    model = noise.ou_noise(gamma, k)
    law = oracles.pauli_law(s0)
    return np.array([laws.series_mean_variance(law, model, t)[0] for t in ts])


def matrix_fn(system, t):
    """M(t) = a + c(t) B; a stack of them, shape t.shape + (dim, dim), for
    a time array.  The oracle the scan's step matrices are checked against."""
    c = np.asarray(system.c_fn(t))
    m = np.broadcast_to(system.a, c.shape + system.a.shape).copy()
    m[..., -1, -3:-1] = c[..., None] * np.array([2.0, -2.0])  # a is zero there
    return m


def second_moment(t, g, k):
    """E[X_t^2] from 0: the calibrated OU variance of the increment."""
    return noise.increment_variance(noise.ou_noise(g, k), t)


def test_first_order_matrix_entries():
    g, k, t = 0.2, 0.1, 2.0
    system = approx.first_order_system(g, k, 0.0)
    m = matrix_fn(system, t)
    g2 = g * g
    p = k * second_moment(t, g, k) - g2
    assert m.shape == (3, 3)
    assert m[0, 0] == -g2 and m[0, 1] == g2 and m[0, 2] == -k
    assert m[1, 2] == k
    assert m[2, 0] == 2 * p and m[2, 1] == -2 * p
    assert m[2, 2] == -(k + 2 * g2)
    stack = matrix_fn(system, np.array([0.0, t]))
    assert stack.shape == (2, 3, 3) and np.array_equal(stack[1], m)
    assert np.array_equal(stack[0], matrix_fn(system, 0.0))


def test_second_order_matrix_entries():
    g, k, t = 0.2, 0.1, 2.0
    system = approx.second_order_system(g, k, 0.0)
    m = matrix_fn(system, t)
    g2 = g * g
    q = k * second_moment(t, g, k) - 2 * g2
    assert m.shape == (6, 6)
    assert m[2, 0] == -2 * g2 and m[2, 3] == 2 * k
    assert m[3, 3] == -(2 * k + g2) and m[3, 5] == -k
    assert m[5, 2] == 2 * g2 and m[5, 3] == 2 * q
    assert m[5, 5] == -(3 * k + 2 * g2)
    # the first-order block is embedded in the upper-left corner
    assert np.allclose(m[:2, :3], matrix_fn(approx.first_order_system(g, k, 0.0), t)[:2, :3])
    stack = matrix_fn(system, np.array([0.0, t]))
    assert stack.shape == (2, 6, 6) and np.array_equal(stack[1], m)
    assert np.array_equal(stack[0], matrix_fn(system, 0.0))


def test_closure_systems():
    s1 = approx.first_order_system(0.2, 0.1, 0.0)
    s2 = approx.second_order_system(0.2, 0.1, 0.5)
    assert len(s1.v0) == 3 and len(s2.v0) == 6
    for s in (s1, s2):
        assert s.a.dtype == s.v0.dtype == np.float64
    assert s2.v0[1] == 0.25
    ts = np.array([0.0, 0.5])
    assert matrix_fn(s1, ts).shape == (2, 3, 3) and matrix_fn(s2, ts).shape == (2, 6, 6)


def test_zero_noise_keeps_unit_fidelity():
    series = approx.integrate_closure(approx.first_order_system(0.0, 0.1, 0.0), 5.0)
    assert np.max(np.abs(series.fidelity - 1.0)) < 1e-12
    series = approx.integrate_closure(approx.second_order_system(0.0, 0.1, 0.0), 5.0)
    assert np.max(np.abs(series.fidelity - 1.0)) < 1e-12


def test_rk4_self_convergence():
    sysm = approx.second_order_system(0.2, 0.1, 0.0)
    a = approx.integrate_closure(sysm, 10.0, dt=1e-3)
    b = approx.integrate_closure(sysm, 10.0, dt=5e-4)
    assert abs(a.fidelity[-1] - b.fidelity[-1]) < 1e-8
    with pytest.raises(ValueError):
        approx.integrate_closure(sysm, 10.0, dt=-1e-3)
    with pytest.raises(ValueError):
        approx.integrate_closure(sysm, 1.0, dt=0.3)


def test_short_time_slope():
    # E[F] = 1 - (1 - s0^2) gamma^2 t + O(t^2) for calibrated OU
    g, k, s0 = 0.2, 0.1, 0.0
    series = approx.integrate_closure(approx.first_order_system(g, k, s0), 0.1)
    slope = (series.fidelity[10] - series.fidelity[0]) / series.times[10]
    assert slope == pytest.approx(-g * g * (1 - s0 * s0), rel=0.05)


def test_closure_tracks_exact_law_at_early_times():
    g, k, s0 = 0.2, 0.1, 0.0
    T = 5.0
    exact = None
    for make in (approx.first_order_system, approx.second_order_system):
        series = approx.integrate_closure(make(g, k, s0), T)
        if exact is None:
            exact = exact_pauli_mean(series.times, g, k, s0)
        gap = np.abs(series.fidelity - exact)
        assert gap.max() < 0.02


def test_second_order_dominates_first():
    """Sup-norm error of order 2 must not exceed order 1 on [0, 5]."""
    g, k, s0 = 0.2, 0.1, 0.0
    T = 5.0
    s1 = approx.integrate_closure(approx.first_order_system(g, k, s0), T)
    s2 = approx.integrate_closure(approx.second_order_system(g, k, s0), T)
    exact = exact_pauli_mean(s1.times, g, k, s0)
    e1 = np.abs(s1.fidelity - exact).max()
    e2 = np.abs(s2.fidelity - exact).max()
    assert e2 < e1


def test_long_time_closure_breakdown_is_reported_not_hidden():
    # the truncation eventually misbehaves; integrate far out and check
    # the series still flows through (no exception, finite values)
    g, k, s0 = 0.2, 0.1, 0.0
    series = approx.integrate_closure(approx.second_order_system(g, k, s0), 150.0)
    assert np.all(np.isfinite(series.fidelity))
    assert series.times[-1] == pytest.approx(150.0)


def rk4_loop(system, T, dt=approx.DEFAULT_DT):
    """The step-by-step classical RK4 that integrate_closure batches: the
    fidelity series."""
    x = system.v0.copy()
    fid = [x[0]]
    for i in range(int(round(T / dt))):
        t = i * dt
        m0, mh, m1 = (matrix_fn(system, s) for s in (t, t + 0.5 * dt, t + dt))
        k1 = m0 @ x
        k2 = mh @ (x + 0.5 * dt * k1)
        k3 = mh @ (x + 0.5 * dt * k2)
        k4 = m1 @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        fid.append(x[0])
    return np.array(fid)


@pytest.mark.parametrize("make", [approx.first_order_system, approx.second_order_system])
@pytest.mark.parametrize("g, k, s0", [(0.2, 0.1, 0.0), (0.3, 0.0, 0.5), (0.0, 0.4, 0.2)])
def test_integrate_closure_matches_rk4_loop(make, g, k, s0):
    system = make(g, k, s0)
    # 10000 steps end inside a chunk, 512 is one chunk of 23 blocks whose
    # last is part-filled, 1 and 0 steps are the shortest scans
    for T in (10.0, 0.512, 0.001, 0.0):
        series = approx.integrate_closure(system, T)
        want = rk4_loop(system, T)
        assert series.times.shape == want.shape
        assert np.abs(series.fidelity - want).max() <= 1e-12
        assert series.imag_residue == 0.0  # a constant the benchmark harness reads


def test_closure_scan_working_set_stays_flat():
    system = approx.second_order_system(0.2, 0.1, 0.0)
    approx.integrate_closure(system, 0.3)  # numpy's first-call allocations
    # 3000 steps are one chunk; 10000 are two full chunks and a tail
    for T in (3.0, 10.0):
        tracemalloc.start()
        try:
            approx.integrate_closure(system, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, (T, peak)


@settings(max_examples=40, deadline=None)
@given(
    make=st.sampled_from([approx.first_order_system, approx.second_order_system]),
    g=st.floats(0.0, 1.0), k=st.floats(0.0, 2.0), s0=st.floats(0.0, 1.0),
    # 255-257 straddle a square; 700 is 26 blocks of 27 steps, not a square
    steps=st.sampled_from([255, 256, 257, 513, 700]),
)
def test_integrate_closure_matches_rk4_loop_around_block_edges(make, g, k, s0, steps):
    system = make(g, k, s0)
    T = steps * approx.DEFAULT_DT
    series = approx.integrate_closure(system, T)
    want = rk4_loop(system, T)
    assert series.times.shape == want.shape == (steps + 1,)
    assert np.abs(series.fidelity - want).max() <= 1e-12


def test_integrate_closure_matches_rk4_loop_around_chunk_edges():
    # one step short of a full chunk, a full chunk, and one step into the
    # next, each against the prefix of one longer loop
    edge = approx._CHUNK
    for make in (approx.first_order_system, approx.second_order_system):
        system = make(0.7, 1.3, 0.4)
        want = rk4_loop(system, (edge + 1) * approx.DEFAULT_DT)
        for steps in (edge - 1, edge, edge + 1):
            series = approx.integrate_closure(system, steps * approx.DEFAULT_DT)
            assert series.times.shape == (steps + 1,)
            assert np.abs(series.fidelity - want[:steps + 1]).max() <= 1e-12, (make, steps)


@pytest.mark.parametrize("make", [approx.first_order_system, approx.second_order_system])
def test_closure_matrix_is_a_plus_c_times_b(make):
    """The scan builds its steps from a, c(t) and B's last row alone; the
    pinned matrices must be exactly that split."""
    g, k = 0.2, 0.1
    system = make(g, k, 0.0)
    dim = len(system.v0)
    ts = np.array([0.0, 0.3, 2.0, 40.0])
    c = k * second_moment(ts, g, k) - (dim // 3) * g * g  # dim // 3 is the order
    b = np.zeros((dim, dim))
    b[-1, -3], b[-1, -2] = 2.0, -2.0
    want = system.a + c[:, None, None] * b
    assert system.a.shape == (dim, dim)
    assert np.array_equal(system.c_fn(ts), c)
    assert np.array_equal(matrix_fn(system, ts), want)
    for t, m in zip(ts, want):
        assert np.array_equal(matrix_fn(system, float(t)), m)


@pytest.mark.parametrize("T", [-0.001, -0.5, math.nan, math.inf, -math.inf])
def test_integrate_closure_rejects_bad_T(T):
    with pytest.raises(ValueError, match=r"T >= 0.*T="):
        approx.integrate_closure(approx.first_order_system(0.2, 0.1, 0.0), T)
