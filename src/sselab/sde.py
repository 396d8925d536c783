"""Monte-Carlo integrator for the joint state-noise SDE.

The joint variable Y = (psi, X) follows

    d psi = (-i H + i k X S - (gamma^2/2) S'S) psi dt - i gamma S psi dW
    d X   = -k X dt + gamma dW

with a single Brownian driver W shared by both blocks.  White noise is
k = 0.  Schemes: Euler-Maruyama and the explicit weak second-order
Platen scheme.  Both steps are linear in psi and polynomials of degree
<= 2 in (X, N), so a run builds its step once as a fixed map
(`_step_map`) and keeps all paths in real layout, a (2d, paths) array
of rows [Re psi; Im psi]: a step is one real matmul and a weighted sum
over the monomials.  This module is the independent check on every
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
# Normals drawn per block, over all paths: a wide run draws shorter blocks,
# so the block stays at 8 MB (one step's normals above 2**20 paths).  A
# Philox stream yields the same sequence in any block length, so the
# output does not depend on this.
BLOCK_NORMALS = 2**20


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
        if ratio >= 2**63:
            raise ValueError("T/dt must be below 2**63")
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


def _step_map(H, S, model, scheme, dt):
    """The scheme's step as one fixed map, built once per run: (R, (ax, an)).

    With D = -iH - (gamma^2/2) S'S, E = ik S and B = -i gamma S the step is
    psi' = sum_m w_m M_m psi over the monomials w = (1, x, N, x^2, xN, N^2)
    (Euler-Maruyama stops at N), and x' = ax x + an N.  R stacks the real
    forms [[Re M, -Im M], [Im M, Re M]] of the M_m, so R @ psi gives every
    term at once for psi in real layout: (2d, paths) rows [Re psi; Im psi].
    """
    g, k = model.gamma, model.k
    D, E, B = (-1j) * H - 0.5 * g * g * (S.conj().T @ S), (1j * k) * S, (-1j * g) * S
    h, c = dt, math.sqrt(dt)
    p, q = 1.0 - k * h, g * c
    if scheme == EULER_MARUYAMA:
        mats = (np.eye(len(H)) + h * D, h * E, c * B)
        lin = (p, q)
    else:
        # Platen's supporting values substituted into its update; products
        # act right to left, so ED means D first.
        DE, ED, EB, EE, BB = D @ E, E @ D, E @ B, E @ E, B @ B
        mats = (
            np.eye(len(H)) + h * D + 0.5 * h * h * (D @ D) - 0.5 * h * BB,
            0.5 * h * (1 + p) * E + 0.5 * h * h * (p * ED + DE),
            c * B + 0.5 * h * q * E + 0.5 * h * h * q * ED + 0.5 * h * c * (D @ B + B @ D),
            0.5 * h * h * p * EE,
            0.5 * h * h * q * EE + 0.5 * h * c * (p * EB + B @ E),
            0.5 * h * c * q * EB + 0.5 * h * BB,
        )
        lin = (1.0 - 0.5 * k * h * (1 + p), q * (1.0 - 0.5 * k * h))
    R = np.vstack([np.block([[m.real, -m.imag], [m.imag, m.real]]) for m in mats])
    return R, lin


def _apply_map(R, psi, w, x, N, renormalize):
    """(psi', norms before renormalizing) for a real-layout (2d, paths) block.

    w is (terms, paths) scratch for the monomial weights; its row 0 holds ones.
    """
    w[1], w[2] = x, N
    if len(w) == 6:
        w[3], w[4], w[5] = x * x, x * N, N * N
    out = np.einsum("mjp,mp->jp", (R @ psi).reshape(len(w), *psi.shape), w)
    norms = np.sqrt(np.einsum("ij,ij->j", out, out))
    if renormalize:
        out /= np.where(norms > 0, norms, 1.0)
    return out, norms


def _real(psi):
    return np.concatenate([psi.real, psi.imag])


def step(Y, H, S, model, config, stream, normal=None):
    """One scheme step of the joint SDE; a single shared normal draw.

    `normal` overrides the draw (used by deterministic tests).  Raises
    PathAbortError on NaN or norm blow-up past 1.5.
    """
    psi = np.asarray(Y.psi, dtype=complex)
    d = psi.shape[0]
    H, S = _check_ops(H, S, d)
    N = float(stream.standard_normal()) if normal is None else float(normal)
    R, (ax, an) = _step_map(H, S, model, config.scheme, config.dt)
    w = np.ones((len(R) // (2 * d), 1))
    psi1, norms = _apply_map(R, _real(psi)[:, None], w, float(Y.x), N, config.renormalize)
    if not np.all(np.isfinite(psi1)) or norms[0] > ABORT_NORM:
        raise PathAbortError(f"path aborted: norm {norms[0]:.4g}")
    return JointState(psi=psi1[:d, 0] + 1j * psi1[d:, 0], x=ax * float(Y.x) + an * N)


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
    n_steps = config.n_steps
    rec_every = config.record_every
    n_rec = n_steps // rec_every + 1
    times = np.arange(n_rec) * (config.dt * rec_every)

    # <phi|psi> in real layout: rows [Re phi, Im phi] and [-Im phi, Re phi]
    targets = np.empty((n_rec, 2, 2 * d))
    for i, t in enumerate(times):
        phi = target_evolution(H, phi0, t)
        targets[i] = [_real(phi), np.concatenate([-phi.imag, phi.real])]
    R, (ax, an) = _step_map(H, S, model, config.scheme, config.dt)

    n_paths = config.n_paths
    fids = np.empty((n_paths, n_rec))
    states = np.empty((n_paths, n_rec, 2 * d)) if config.keep_states else None
    xs = np.empty((n_paths, n_rec)) if config.keep_states else None
    abort_step = np.full(n_paths, -1, dtype=np.int64)
    drift = np.zeros(n_paths)

    seed = config.master_seed & (2**64 - 1)
    gens = [
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        for i in range(n_paths)
    ]
    x0s = np.array([noise_mod.draw_initial(model, gen) for gen in gens])
    x = x0s.copy()
    psi = np.repeat(_real(phi0)[:, None], n_paths, axis=1)
    alive = np.ones(n_paths, dtype=bool)
    w = np.ones((len(R) // (2 * d), n_paths))

    def record(slot):
        # rows of aborted paths are recorded too, and dropped at the end
        ov = targets[slot] @ psi
        fids[:, slot] = ov[0] ** 2 + ov[1] ** 2
        if states is not None:
            states[:, slot] = psi.T
            xs[:, slot] = x

    record(0)
    block = min(TIME_BLOCK, max(1, BLOCK_NORMALS // n_paths))
    step_no = 0
    while step_no < n_steps:
        tb = min(block, n_steps - step_no)
        normals = np.empty((n_paths, tb))
        for j, gen in enumerate(gens):
            normals[j] = gen.standard_normal(tb)
        for s in range(tb):
            N = normals[:, s]
            psi, norms = _apply_map(R, psi, w, x, N, config.renormalize)
            x = ax * x + an * N
            step_no += 1
            bad = alive & (~np.isfinite(norms) | (norms > ABORT_NORM) | ~np.isfinite(x))
            if bad.any():
                abort_step[bad] = step_no
                alive &= ~bad
                psi[:, bad] = 0.0
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
        states=None if states is None else states[rows, :, :d] + 1j * states[rows, :, d:],
        xs=None if xs is None else xs[rows],
        summary=summary,
        aborted=aborted,
        max_norm_drift=float(drift.max(initial=0.0)),
        max_range_violation=violation,
    )
