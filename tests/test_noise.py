import math

import numpy as np
import pytest

from sselab import noise, qstate, sde


def gaussian_power_moment(mu, sigma, m):
    """E[(mu + sigma Z)^m] by the binomial sum, Z standard normal.

    Independent oracle for the conditional moment formulas: only uses
    E[Z^j] = (j-1)!! for even j and 0 for odd j.
    """
    total = 0.0
    for j in range(0, m + 1, 2):
        zj = 1.0
        for q in range(1, j, 2):
            zj *= q
        total += math.comb(m, j) * mu ** (m - j) * sigma**j * zj
    return total


def test_model_constructors():
    w = noise.white_noise(0.3)
    assert w.kind == noise.WHITE
    assert w.gamma == 0.3
    assert w.k == 0.0
    ou = noise.ou_noise(0.2, 0.1)
    assert ou.kind == noise.OU
    assert ou.init == noise.CALIBRATED
    ou2 = noise.ou_noise(0.2, 0.1, init=noise.STATIONARY)
    assert ou2.init == noise.STATIONARY
    with pytest.raises(ValueError):
        noise.ou_noise(-0.1, 0.1)
    with pytest.raises(ValueError):
        noise.ou_noise(0.1, -0.2)


def test_terminal_increment_variance_formulas():
    g, k, t = 0.3, 0.7, 1.3
    _, v = noise.terminal_increment_law(noise.white_noise(g), t)
    assert abs(v - g * g * t) < 1e-15
    _, v = noise.terminal_increment_law(noise.ou_noise(g, k), t)
    assert abs(v - g * g / (2 * k) * (1 - math.exp(-2 * k * t))) < 1e-15
    _, v = noise.terminal_increment_law(noise.ou_noise(g, k, init=noise.STATIONARY), t)
    assert abs(v - g * g / k * (1 - math.exp(-k * t))) < 1e-15
    with pytest.raises(ValueError):
        noise.terminal_increment_law(noise.white_noise(g), -0.5)


def test_variance_k_to_zero_limit():
    # both OU variants converge to the white-noise variance as k -> 0
    g, t = 0.25, 2.0
    _, v_wn = noise.terminal_increment_law(noise.white_noise(g), t)
    for init in (noise.CALIBRATED, noise.STATIONARY):
        _, v = noise.terminal_increment_law(noise.ou_noise(g, 1e-9, init=init), t)
        assert abs(v - v_wn) / v_wn < 1e-6


def test_calibrated_variance_as_second_moment():
    """From X0 = 0 the increment variance is E[X_t^2], which the closure
    coefficients read: exact at k = 0, the stationary plateau at long
    times, and a time array gives the scalar values elementwise."""
    g, k = 0.3, 0.4
    _, v = noise.terminal_increment_law(noise.ou_noise(g, 0.0), 2.0)
    assert v == pytest.approx(g * g * 2.0, rel=1e-15)
    _, v = noise.terminal_increment_law(noise.ou_noise(g, k), 1e3)
    assert v == pytest.approx(g * g / (2 * k), rel=1e-15)
    ts = np.array([0.0, 1.5, 1e3])
    for kk in (0.0, k):
        model = noise.ou_noise(g, kk)
        want = [noise.terminal_increment_law(model, float(s))[1] for s in ts]
        assert np.array_equal(noise.terminal_increment_law(model, ts)[1], want)


def test_expected_cos_matches_characteristic_function():
    model = noise.ou_noise(0.2, 0.1)
    for t in (0.1, 1.0, 7.0):
        _, v = noise.terminal_increment_law(model, t)
        for alpha in (1, 2, 4):
            want = math.exp(-0.5 * alpha * alpha * v)
            assert abs(noise.expected_cos(alpha, model, t) - want) < 1e-15


def test_expected_cos_quadrature_oracle():
    """Check E[cos(a DX)] against direct Gaussian quadrature."""
    model = noise.ou_noise(0.3, 0.4, init=noise.STATIONARY)
    t = 1.7
    _, v = noise.terminal_increment_law(model, t)
    xs = np.linspace(-8 * math.sqrt(v), 8 * math.sqrt(v), 200001)
    pdf = np.exp(-xs * xs / (2 * v)) / math.sqrt(2 * math.pi * v)
    for alpha in (1, 2):
        byint = np.trapezoid(np.cos(alpha * xs) * pdf, xs)
        assert abs(noise.expected_cos(alpha, model, t) - byint) < 1e-10


def test_raw_even_moment_double_factorial():
    model = noise.ou_noise(0.2, 0.5)
    t = 0.9
    _, v = noise.terminal_increment_law(model, t)
    assert abs(noise.raw_even_moment(1, model, t) - v) < 1e-15
    assert abs(noise.raw_even_moment(2, model, t) - 3 * v * v) < 1e-15
    assert abs(noise.raw_even_moment(3, model, t) - 15 * v**3) < 1e-15
    with pytest.raises(ValueError):
        noise.raw_even_moment(0, model, t)
    with pytest.raises(ValueError):
        noise.raw_even_moment(7, model, t)  # order 14 > guard


def test_raw_even_moment_monte_carlo():
    # 1e6 exact OU increments; 5% relative agreement for n <= 3
    rng = np.random.default_rng(12345)
    g, k, t = 0.2, 0.3, 1.5
    for init in (noise.CALIBRATED, noise.STATIONARY):
        model = noise.ou_noise(g, k, init=init)
        n_samp = 1_000_000
        if init == noise.CALIBRATED:
            x0 = np.zeros(n_samp)
        else:
            x0 = g / math.sqrt(2 * k) * rng.standard_normal(n_samp)
        xt = x0 * math.exp(-k * t) + math.sqrt(
            g * g / (2 * k) * (1 - math.exp(-2 * k * t))
        ) * rng.standard_normal(n_samp)
        dx = xt - x0
        for n in (1, 2, 3):
            mc = float(np.mean(dx ** (2 * n)))
            exact = noise.raw_even_moment(n, model, t)
            assert abs(mc - exact) / exact < 0.05


def test_conditional_moment_gaussian_oracle():
    """X_t | X_0 is Gaussian; every moment must match the binomial sum."""
    g, k, t = 0.3, 0.7, 0.9
    model = noise.ou_noise(g, k)
    mu_factor = math.exp(-k * t)
    sigma = math.sqrt(g * g / (2 * k) * (1 - math.exp(-2 * k * t)))
    for X0 in (0.0, 0.4, -1.1):
        for m in range(0, 13):
            want = gaussian_power_moment(X0 * mu_factor, sigma, m)
            got = noise.conditional_moment(m, X0, model, t)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_conditional_moment_calibrated_closed_forms():
    # X0 = 0: odd moments vanish, even are (2n-1)!! sigma^(2n)
    g, k, t = 0.25, 0.4, 2.0
    model = noise.ou_noise(g, k)
    sigma2 = g * g / (2 * k) * (1 - math.exp(-2 * k * t))
    assert noise.conditional_moment(1, 0.0, model, t) == 0.0
    assert noise.conditional_moment(3, 0.0, model, t) == 0.0
    assert abs(noise.conditional_moment(2, 0.0, model, t) - sigma2) < 1e-12
    assert abs(noise.conditional_moment(4, 0.0, model, t) - 3 * sigma2**2) < 1e-12
    assert abs(noise.conditional_moment(6, 0.0, model, t) - 15 * sigma2**3) < 1e-12


def test_conditional_moment_k_limit():
    # k -> 0: transition law becomes N(X0, g^2 t)
    g, t, X0 = 0.2, 1.5, 0.6
    tiny = noise.ou_noise(g, 1e-9)
    for m in range(1, 13):
        want = gaussian_power_moment(X0, g * math.sqrt(t), m)
        got = noise.conditional_moment(m, X0, tiny, t)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_conditional_moment_guards():
    model = noise.ou_noise(0.2, 0.1)
    with pytest.raises(ValueError):
        noise.conditional_moment(-1, 0.0, model, 1.0)
    with pytest.raises(ValueError):
        noise.conditional_moment(13, 0.0, model, 1.0)
    with pytest.raises(ValueError):
        noise.conditional_moment(2, 0.0, noise.white_noise(0.2), 1.0)


def test_draw_initial():
    stream = np.random.default_rng(7)
    assert noise.draw_initial(noise.ou_noise(0.2, 0.1), stream) == 0.0
    assert noise.draw_initial(noise.white_noise(0.2), stream) == 0.0
    model = noise.ou_noise(0.2, 0.1, init=noise.STATIONARY)
    draws = np.array([noise.draw_initial(model, stream) for _ in range(20000)])
    sd = 0.2 / math.sqrt(2 * 0.1)
    assert abs(draws.mean()) < 5 * sd / math.sqrt(len(draws))
    assert abs(draws.std() - sd) / sd < 0.02
    # a stationary start with k = 0 has no stationary law: refused when built
    with pytest.raises(ValueError):
        noise.NoiseModel(kind=noise.OU, gamma=0.2, k=0.0, init=noise.STATIONARY)


def noise_paths(model, T, dt, n, seed=0):
    """The noise paths the SDE integrator samples next to the state."""
    cfg = sde.SimConfig(dt=dt, T=T, n_paths=n, master_seed=seed,
                        record_every=int(round(T / dt)))
    return sde.simulate_paths(np.zeros((2, 2)), qstate.SIGMA_X, model,
                              np.array([1, 0], dtype=complex), cfg)


def test_sample_path_moments():
    """Sampled OU paths must reproduce the transition mean/variance."""
    g, k, T, dt = 0.3, 0.8, 2.0, 0.01
    n = 4000
    res = noise_paths(noise.ou_noise(g, k), T, dt, n, seed=1000)
    finals = res.terminal_x
    var_exact = g * g / (2 * k) * (1 - math.exp(-2 * k * T))
    assert abs(finals.mean()) < 4 * math.sqrt(var_exact / n)
    assert abs(finals.var() - var_exact) / var_exact < 0.1
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(T)
    assert np.all(res.initial_x == 0.0)


def test_sample_path_stationary_start():
    model = noise.ou_noise(0.4, 0.6, init=noise.STATIONARY)
    res = noise_paths(model, 0.1, 0.05, 8000)
    sd = 0.4 / math.sqrt(2 * 0.6)
    assert abs(res.initial_x.std() - sd) / sd < 0.03
    assert abs(res.terminal_x.std() - sd) / sd < 0.03


def test_white_noise_path_is_brownian():
    g, T, dt = 0.5, 1.0, 0.01
    finals = noise_paths(noise.white_noise(g), T, dt, 3000).terminal_x
    assert abs(finals.var() - g * g * T) / (g * g * T) < 0.1
