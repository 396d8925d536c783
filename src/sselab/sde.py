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

The step loop keeps only the linear update of psi.  X obeys
x' = ax x + an N and never reads psi, so the run goes in chunks of
CHUNK_VALUES path-steps: each chunk first computes its X path and
monomial weights, then steps psi into a stack of the chunk's
unnormalized states.  Dividing by a positive scalar commutes with a
linear map, so the renormalized state at any step is the stack's entry
divided by its norm, and the norm a renormalized step produces is the
ratio of consecutive norms.  One pass over the stack after the loop
then gives the norms, the abort test (non-finite or > ABORT_NORM norm,
non-finite X), the norm drift, and the fidelities and kept states at
the recorded steps.  A renormalizing run rescales the states in the loop
only every _RESCALE_EVERY steps, at fixed step numbers, so the output
does not depend on the chunk length.  A path that dies inside a chunk
runs on to the chunk's end, silently, and its rows are dropped.  The
noiseless targets at all recorded times come from one eigendecomposition
of H.

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
# Path-steps per chunk of the step loop (see above).  A chunk stores its
# weights (48 bytes per path-step) and its unnormalized states (16 d bytes
# per path-step): about 660 KB at d = 2.  The output does not depend on it.
CHUNK_VALUES = 2**13
# A renormalizing run rescales psi only at step numbers divisible by this.
# A live path's norm changes by at most ABORT_NORM per step, so between
# rescales it stays within 1.5**64 (about 2e11) of 1.
_RESCALE_EVERY = 64


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
    M = np.array(mats)
    R = np.concatenate([np.concatenate([M.real, -M.imag], axis=2),
                        np.concatenate([M.imag, M.real], axis=2)], axis=1)
    return R.reshape(-1, 2 * len(H)), lin


def _weights(x, N, terms):
    """Monomial weights (1, x, N, x^2, xN, N^2)[:terms], stacked on axis -2.

    For (steps, paths) arrays of noise values x and normals N this is a
    (steps, terms, paths) array, so each step's weights are contiguous.
    """
    w = [np.ones_like(x), x, N]
    if terms == 6:
        w += [x * x, x * N, N * N]
    return np.stack(w, axis=-2)


def _advance(R, psi, w, out=None, scratch=None):
    """One linear step sum_m w_m M_m psi of a real-layout (2d, paths) block.

    w is the step's (terms, paths) monomial weights; `out` may name the
    (2d, paths) array to write into and `scratch` a (terms * 2d, paths)
    array for R @ psi.
    """
    y = np.matmul(R, psi, out=scratch)
    return np.einsum("mjp,mp->jp", y.reshape(len(w), *psi.shape), w, out=out)


def _sq_norms(a):
    """Squared norms over axis -2 of real-layout states.

    Summed row by row in a fixed order, so a state's norm does not depend
    on the array it sits in.
    """
    out = a[..., 0, :] ** 2
    for j in range(1, a.shape[-2]):
        out += a[..., j, :] ** 2
    return out


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
    w = _weights(np.array([float(Y.x)]), np.array([N]), len(R) // (2 * d))
    psi1 = _advance(R, _real(psi)[:, None], w)
    norm = math.sqrt(_sq_norms(psi1)[0])
    if not np.all(np.isfinite(psi1)) or norm > ABORT_NORM:
        raise PathAbortError(f"path aborted: norm {norm:.4g}")
    if config.renormalize and norm > 0:
        psi1 /= norm
    return JointState(psi=psi1[:d, 0] + 1j * psi1[d:, 0], x=ax * float(Y.x) + an * N)


def target_evolution(H, phi0, times):
    """Noiseless targets phi_t = exp(-iHt) phi0 at every t of `times`.

    One eigendecomposition H = V diag(e) V' serves all times:
    phi_t = V (exp(-i e t) * V' phi0).  Returns shape times.shape + (d,).
    """
    e, v = np.linalg.eigh(np.asarray(H, dtype=complex))
    c = v.conj().T @ qstate.as_state(phi0)
    return (np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), e)) * c) @ v.T


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
    phis = target_evolution(H, phi0, times)
    targets = np.stack([np.concatenate([phis.real, phis.imag], axis=1),
                        np.concatenate([-phis.imag, phis.real], axis=1)], axis=1)
    R, (ax, an) = _step_map(H, S, model, config.scheme, config.dt)
    terms = len(R) // (2 * d)

    n_paths = config.n_paths
    fids = np.empty((n_paths, n_rec))
    states = np.empty((n_paths, n_rec, 2 * d)) if config.keep_states else None
    xs = np.empty((n_paths, n_rec)) if config.keep_states else None
    abort_step = np.full(n_paths, -1, dtype=np.int64)
    drift = 0.0

    seed = config.master_seed & (2**64 - 1)
    gens = [
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        for i in range(n_paths)
    ]
    x0s = np.array([noise_mod.draw_initial(model, gen) for gen in gens])
    x = x0s.copy()
    alive = np.ones(n_paths, dtype=bool)
    renorm = config.renormalize
    block = min(TIME_BLOCK, max(1, BLOCK_NORMALS // n_paths))
    chunk = max(1, min(CHUNK_VALUES // n_paths, block, n_steps))
    # Psi[s] is the unnormalized state after the chunk's s-th step; row 0
    # carries the state over from the previous chunk
    Psi = np.empty((chunk + 1, 2 * d, n_paths))
    Psi[0] = _real(phi0)[:, None]
    scratch = np.empty((len(R), n_paths))

    def record(rows, slots, sq, xrows):
        # F = |<phi|psi>|^2 / |psi|^2 (the state is unnormalized); rows of
        # aborted paths are recorded too, and dropped at the end
        P, T = Psi[rows], targets[slots]
        ov = T[:, :, 0, None] * P[:, None, 0]
        for j in range(1, 2 * d):
            ov += T[:, :, j, None] * P[:, None, j]
        f = ov[:, 0] ** 2 + ov[:, 1] ** 2
        if renorm:
            f /= sq
        fids[:, slots] = f.T
        if states is not None:
            if renorm:
                P /= np.sqrt(sq)[:, None]
            states[:, slots] = P.transpose(2, 0, 1)
            xs[:, slots] = xrows.T

    step_no = 0
    # A path that dies inside a chunk runs on to the chunk's end and may
    # overflow there; its rows are dropped, so that stays silent.
    with np.errstate(over="ignore", invalid="ignore"):
        record([0], [0], _sq_norms(Psi[:1]), x[None])
        while step_no < n_steps:
            tb = min(block, n_steps - step_no)
            normals = np.empty((n_paths, tb))
            for j, gen in enumerate(gens):
                normals[j] = gen.standard_normal(tb)
            for c0 in range(0, tb, chunk):
                # the noise path and the weights never read psi
                N = normals[:, c0:c0 + chunk].T
                nc = len(N)
                xp = np.empty((nc + 1, n_paths))
                xp[0] = x
                for prev, nxt, aN in zip(xp, xp[1:], an * N):
                    np.multiply(prev, ax, out=nxt)
                    np.add(nxt, aN, out=nxt)
                w = _weights(xp[:-1], N, terms)
                # Only the linear update runs per step.  A renormalizing run
                # rescales at absolute step numbers divisible by
                # _RESCALE_EVERY, keeping the norm before the rescale.
                rescaled = {}
                for s in range(nc):
                    _advance(R, Psi[s], w[s], Psi[s + 1], scratch)
                    if renorm and (step_no + s + 1) % _RESCALE_EVERY == 0:
                        n = np.sqrt(_sq_norms(Psi[s + 1]))
                        np.divide(Psi[s + 1], n, out=Psi[s + 1], where=n > 0)
                        rescaled[s] = n
                sq = _sq_norms(Psi[:nc + 1])
                nrm = np.sqrt(sq)
                # the norm each step produced: of psi itself without
                # renormalizing, else its growth over the step
                norms = nrm[1:].copy()
                for s, n in rescaled.items():
                    norms[s] = n
                if renorm:
                    np.divide(norms, nrm[:-1], out=norms, where=nrm[:-1] > 0)
                # a path dies at its first bad step; that step and later
                # ones count for no drift
                bad = (~np.isfinite(norms) | (norms > ABORT_NORM) | ~np.isfinite(xp[1:])) & alive
                first = np.where(bad.any(axis=0), bad.argmax(axis=0), nc)
                live = (np.arange(nc)[:, None] < first) & alive
                drift = max(drift, float(np.where(live, np.abs(norms - 1.0), 0.0).max()))
                rec = np.arange(rec_every - step_no % rec_every, nc + 1, rec_every)
                if len(rec):
                    record(rec, (step_no + rec) // rec_every, sq[rec], xp[rec])
                dead = first < nc
                abort_step[dead] = step_no + first[dead] + 1
                alive &= ~dead
                Psi[0] = Psi[nc]
                Psi[0][:, dead] = 0.0
                x = xp[-1]
                x[dead] = 0.0
                step_no += nc

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
        mean = np.array([math.fsum(col) for col in fid_rows.T.tolist()]) / n_eff
    if n_eff >= 2:
        dev = ((fid_rows - mean) ** 2).T.tolist()
        var = np.array([math.fsum(col) for col in dev]) / (n_eff - 1)
        stderr = np.sqrt(var / n_eff)
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
        max_norm_drift=drift,
        max_range_violation=violation,
    )
