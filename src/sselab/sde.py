"""Monte-Carlo integrator for the joint state-noise SDE.

The joint variable Y = (psi, X) follows

    d psi = (-i H + i k X S - (gamma^2/2) S'S) psi dt - i gamma S psi dW
    d X   = -k X dt + gamma dW

with a single Brownian driver W shared by both blocks.  White noise is
k = 0.  Schemes: Euler-Maruyama and the explicit weak second-order
Platen scheme.  This module is the independent check on every
closed-form law in the package: it never consults them.

Reproducibility: path i draws from its own Philox(master_seed, i)
stream, in a fixed order (initial noise value first, then one normal
per step), so the output depends only on the config and the seed.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import noise as noise_mod
from . import qstate

EULER_MARUYAMA = "euler-maruyama"
PLATEN_WEAK2 = "platen-weak2"
SCHEMES = (EULER_MARUYAMA, PLATEN_WEAK2)

ABORT_NORM = 1.5
CLAMP_TOL = 1e-9
PRECLAMP_LIMIT = 1e-6
MAX_ABORT_FRACTION = 0.01
TIME_BLOCK = 2048


class PathAbortError(RuntimeError):
    """Raised when the aborted-path fraction exceeds the 1% budget."""


class FidelityRangeError(RuntimeError):
    """Raised when pre-clamp fidelities leave [0,1] by more than 1e-6."""


@dataclass
class JointState:
    psi: np.ndarray
    x: float


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    scheme: str = PLATEN_WEAK2
    renormalize: bool = True
    n_paths: int = 1
    master_seed: int = 0
    record_every: int = 1
    keep_states: bool = False

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.T < math.inf:
            raise ValueError("T must be non-negative and finite")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("T/dt must be an integer")
        if self.record_every < 1 or round(ratio) % self.record_every != 0:
            raise ValueError("record_every must divide the step count")

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


@dataclass
class SummaryTable:
    times: np.ndarray
    mean_f: np.ndarray
    var_f: np.ndarray
    stderr_f: np.ndarray
    n_effective: int


@dataclass
class SimulationResult:
    times: np.ndarray
    fidelities: np.ndarray        # (n_completed, n_rec), clamped to [0,1]
    path_indices: np.ndarray      # original path ids of the rows above
    initial_x: np.ndarray
    terminal_x: np.ndarray
    states: Optional[np.ndarray]  # (n_completed, n_rec, d) if keep_states
    xs: Optional[np.ndarray]      # (n_completed, n_rec) noise values, likewise
    summary: SummaryTable
    aborted: tuple                # ((path index, step index), ...)
    max_norm_drift: float
    max_range_violation: float


def _check_ops(H, S, d):
    H = np.asarray(H, dtype=complex)
    S = np.asarray(S, dtype=complex)
    if H.shape != (d, d) or S.shape != (d, d):
        raise ValueError("H, S and the state have inconsistent dimensions")
    return H, S


def _kernel_ops(H, S, g):
    """(D0, ST, BT) for `_chunk_step`."""
    return ((-1j) * H - 0.5 * g * g * (S.conj().T @ S)).T, S.T, ((-1j * g) * S).T


def _chunk_step(psi, x, N, scheme, dt, D0, ST, BT, k, g, renormalize):
    """Advance a (B, d) state block and (B,) noise block by one step.

    D0 = (-iH - (gamma^2/2) S'S)^T, ST = S^T, BT = (-i gamma S)^T, so
    drift(psi, x) = psi @ D0 + (ik x) (psi @ ST) row-wise.
    """
    sqdt = math.sqrt(dt)
    a0 = psi @ D0 + (1j * k) * x[:, None] * (psi @ ST)
    b0 = psi @ BT
    ax0 = -k * x
    Nc = N[:, None]
    if scheme == EULER_MARUYAMA:
        psi1 = psi + a0 * dt + b0 * (Nc * sqdt)
        x1 = x + ax0 * dt + (g * sqdt) * N
    else:
        bar_psi = psi + a0 * dt + b0 * (Nc * sqdt)
        bar_x = x + ax0 * dt + (g * sqdt) * N
        up_psi = psi + a0 * dt + b0 * sqdt
        dn_psi = psi + a0 * dt - b0 * sqdt
        a1 = bar_psi @ D0 + (1j * k) * bar_x[:, None] * (bar_psi @ ST)
        ax1 = -k * bar_x
        bp = up_psi @ BT
        bm = dn_psi @ BT
        psi1 = psi + 0.5 * (a1 + a0) * dt \
            + 0.25 * (bp + bm + 2.0 * b0) * (Nc * sqdt) \
            + 0.25 * (bp - bm) * ((N * N - 1.0)[:, None] * sqdt)
        # noise diffusion is constant, so its second-order terms collapse
        x1 = x + 0.5 * (ax1 + ax0) * dt + (g * sqdt) * N
    norms = np.linalg.norm(psi1, axis=1)
    if renormalize:
        safe = np.where(norms > 0, norms, 1.0)
        psi1 = psi1 / safe[:, None]
    return psi1, x1, norms


def step(Y, H, S, model, config, stream, normal=None):
    """One scheme step of the joint SDE; a single shared normal draw.

    `normal` overrides the draw (used by deterministic tests).  Raises
    PathAbortError on NaN or norm blow-up past 1.5.
    """
    H, S = _check_ops(H, S, np.asarray(Y.psi).shape[0])
    N = float(stream.standard_normal()) if normal is None else float(normal)
    g, k = model.gamma, model.k
    psi1, x1, norms = _chunk_step(
        np.asarray(Y.psi, dtype=complex)[None, :], np.array([float(Y.x)]),
        np.array([N]), config.scheme, config.dt, *_kernel_ops(H, S, g), k, g,
        config.renormalize,
    )
    if not np.all(np.isfinite(psi1)) or norms[0] > ABORT_NORM:
        raise PathAbortError(f"path aborted: norm {norms[0]:.4g}")
    return JointState(psi=psi1[0], x=float(x1[0]))


def target_evolution(H, phi0, t):
    """Noiseless target phi_t = exp(-iHt) phi0."""
    H = np.asarray(H, dtype=complex)
    phi0 = qstate.as_state(phi0)
    return qstate.mat_exp(-1j * t * H) @ phi0


def _resolve_workers(config):
    """Always 1: paths run in a single thread.

    Kept only because the benchmark harness (bench/run.py) records this
    value for each repetition; drop it once the harness stops reading it.
    """
    return 1


def simulate_paths(H, S, model, phi0, config):
    """Integrate n_paths of the joint SDE; deterministic in master_seed.

    Returns a SimulationResult with per-path fidelity series against the
    noiseless target, summary statistics per recorded time, and abort
    diagnostics.  More than 1% aborted paths raises PathAbortError; a
    pre-clamp fidelity excursion beyond 1e-6 raises FidelityRangeError.
    """
    phi0 = qstate.as_state(phi0)
    d = phi0.shape[0]
    H, S = _check_ops(H, S, d)
    g, k = model.gamma, model.k
    n_steps = config.n_steps
    rec_every = config.record_every
    n_rec = n_steps // rec_every + 1
    times = np.arange(n_rec) * (config.dt * rec_every)

    targets = np.empty((n_rec, d), dtype=complex)
    for i, t in enumerate(times):
        targets[i] = target_evolution(H, phi0, t)
    targets_conj = targets.conj()
    ops = _kernel_ops(H, S, g)

    n_paths = config.n_paths
    fids = np.empty((n_paths, n_rec))
    states = np.empty((n_paths, n_rec, d), dtype=complex) if config.keep_states else None
    xs = np.empty((n_paths, n_rec)) if config.keep_states else None
    abort_step = np.full(n_paths, -1, dtype=np.int64)
    drift = np.zeros(n_paths)

    seed = config.master_seed & (2**64 - 1)
    gens = [np.random.Generator(np.random.Philox(key=[seed, i])) for i in range(n_paths)]
    x0s = np.array([noise_mod.draw_initial(model, gen) for gen in gens])
    x = x0s.copy()
    psi = np.tile(phi0, (n_paths, 1))
    alive = np.ones(n_paths, dtype=bool)

    def record(slot):
        # rows of aborted paths are recorded too, and dropped at the end
        fids[:, slot] = np.abs(psi @ targets_conj[slot]) ** 2
        if states is not None:
            states[:, slot] = psi
            xs[:, slot] = x

    record(0)
    step_no = 0
    while step_no < n_steps:
        tb = min(TIME_BLOCK, n_steps - step_no)
        normals = np.empty((n_paths, tb))
        for j, gen in enumerate(gens):
            normals[j] = gen.standard_normal(tb)
        for s in range(tb):
            psi, x, norms = _chunk_step(
                psi, x, normals[:, s], config.scheme, config.dt, *ops, k, g,
                config.renormalize,
            )
            step_no += 1
            bad = alive & (~np.isfinite(norms) | (norms > ABORT_NORM) | ~np.isfinite(x))
            if bad.any():
                abort_step[bad] = step_no
                alive &= ~bad
                psi[bad] = 0.0
                x[bad] = 0.0
            np.maximum(drift, np.where(alive, np.abs(norms - 1.0), 0.0), out=drift)
            if step_no % rec_every == 0:
                record(step_no // rec_every)

    aborted = tuple((int(i), int(abort_step[i])) for i in np.flatnonzero(~alive))
    if len(aborted) > MAX_ABORT_FRACTION * n_paths:
        raise PathAbortError(
            f"{len(aborted)} of {n_paths} paths aborted "
            f"(> {MAX_ABORT_FRACTION:.0%}); first at step {aborted[0][1]}"
        )
    rows = np.flatnonzero(alive)
    fid_rows = fids[rows]

    violation = 0.0
    if fid_rows.size:
        violation = max(0.0, float(fid_rows.max()) - 1.0, -float(fid_rows.min()))
    if violation > PRECLAMP_LIMIT:
        raise FidelityRangeError(
            f"fidelity left [0,1] by {violation:.3e} before clamping"
        )
    fid_rows = np.clip(fid_rows, 0.0, 1.0)

    n_eff = len(rows)
    mean = np.full(n_rec, np.nan)
    var = np.full(n_rec, np.nan)
    stderr = np.full(n_rec, np.nan)
    if n_eff >= 1:
        for j in range(n_rec):
            col = fid_rows[:, j]
            m = math.fsum(col) / n_eff
            mean[j] = m
            if n_eff >= 2:
                var[j] = math.fsum((c - m) ** 2 for c in col) / (n_eff - 1)
                stderr[j] = math.sqrt(var[j] / n_eff)
    summary = SummaryTable(
        times=times, mean_f=mean, var_f=var, stderr_f=stderr, n_effective=n_eff
    )

    return SimulationResult(
        times=times,
        fidelities=fid_rows,
        path_indices=rows,
        initial_x=x0s[rows],
        terminal_x=x[rows],
        states=None if states is None else states[rows],
        xs=None if xs is None else xs[rows],
        summary=summary,
        aborted=aborted,
        max_norm_drift=float(drift.max(initial=0.0)),
        max_range_violation=violation,
    )
