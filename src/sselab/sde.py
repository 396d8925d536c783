"""Monte-Carlo integrator for the joint state-noise SDE.

The joint variable Y = (psi, X) follows

    d psi = (-i H + i k X S - (gamma^2/2) S'S) psi dt - i gamma S psi dW
    d X   = -k X dt + gamma dW

with a single Brownian driver W shared by both blocks.  White noise is
k = 0.  Schemes: Euler-Maruyama and the explicit weak second-order
Platen scheme.  Both steps are linear in psi and polynomials of degree
<= 2 in (X, N), so a run builds its step once as a fixed map
(`_step_map`): psi' = sum_m w_m M_m psi over the monomial weights w_m.
This module is the independent check on every closed-form law in the
package: it never consults them.

A run steps the coordinates C = V'psi in a basis V of eigenvectors of S
that also diagonalizes H within S's degenerate eigenspaces
(`_eigenbasis`).  In V each step matrix L_m = V'M_mV is read by its
wrapped diagonals L_m[i, (i + o) mod d], and a step is

    C' = sum_o G_o * roll_o(C),   G_o = sum_m w_m L_m[i, (i + o) mod d]

over the shifts o that carry an entry above 1e-12 of the largest entry
of some L_m.  When H and S commute, the pathwise state is
exp(-iHt) exp(-iS dX) phi0, every L_m is diagonal and only o = 0 is
left: a step is one elementwise complex multiply.  H = X, S = Z steps
the shifts {0, 1}.  tests/test_sde.py keeps the reference: one plain
step of psi in the computational basis.

A diagonal run then steps one amplitude per occupied class of
components with equal step factors (`_occupied_classes`).  An inert
class, where S and H vanish and every factor is 1, is not stepped when
another class is occupied: the run carries its part c u of psi, the
same on every path, as the constant c = u'phi0, adding |c|^2 to each
squared norm, <phi_t|u> c to each overlap and c u to each kept state.
Under the collective S = X (x) I + I (x) X, |00> steps 2 amplitudes,
not 4 (as does GHZ, which has no weight on the inert class), and under
P1 |+> steps 1.  Below, V stands for that reduced basis.

The step loop keeps only this linear update.  X obeys x' = ax x + an N
and never reads psi, so the run goes in chunks of CHUNK_VALUES
path-steps: each chunk first computes its X path, its monomial weights
and every step's factors G_o, then steps C into a stack of the chunk's
unnormalized states.  Dividing by a positive scalar commutes with a
linear map, so the renormalized state at any step is the stack's entry
divided by its norm, and the norm a renormalized step produces is the
ratio of consecutive norms.  One pass over the stack after the loop
then gives the norms, the abort test (non-finite or > ABORT_NORM norm,
non-finite X), the norm drift, and the fidelities and kept states at
the recorded steps; kept states are mapped back to psi with V at the
end.  The weights are stored monomial-major, each monomial's weights
over the chunk one contiguous (steps, paths) slab, and each step's
factors come from a small product over that step's strided view.
Every array a chunk uses is allocated once per run and written in
place: the weights' constant slab once, their other slabs, the X path
and the normals of the chunk (copied from the block, step-major) per
chunk.  The abort test and the drift read only the largest and the
smallest norm of a chunk in which no path goes bad.  A renormalizing
run rescales the states in the loop only every _RESCALE_EVERY steps, at
fixed step numbers, so the output does not depend on the chunk length.
An anchored run, one that carries an inert class, never rescales, since
c keeps its scale: its stepped part must stay in range unaided, and a
path on which it overflows aborts as non-finite.
A path that dies inside a chunk runs on to the chunk's end, silently,
and its rows are dropped.  The noiseless targets at all recorded times
come from one eigendecomposition of H.  F at t = 0 is computed from
phi0 itself, so it is exactly 1 for a basis state at H = 0.

The summary at each recorded time sums over the completed paths in path
order (an accumulate along the path axis, which is sequential for every
shape), and the squared deviations from the mean are products.

Reproducibility: path i draws from its own Philox(master_seed, i)
stream, in a fixed order (the normal of a stationary initial noise
value first, then one normal per step), so the output depends only on
the config and the seed.  One generator serves every path: the first
block of normals sets each path's fresh stream from one reused state
dict of Python ints, its key edited in place, and draws the path's
leading normal and its block in one fill, into a leading column that
`noise.initial_x` maps to X0 for all paths at once; later blocks swap
in the state each path left.
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
PRECLAMP_LIMIT = 1e-6
MAX_ABORT_FRACTION = 0.01
TIME_BLOCK = 2048
# Normals drawn per block, over all paths: a wide run draws shorter blocks,
# so the block stays at 8 MB (one step's normals above 2**20 paths).  A
# Philox stream yields the same sequence in any block length, so the
# output does not depend on this.
BLOCK_NORMALS = 2**20
# Path-steps per chunk of the step loop (see above).  Its buffers, in
# bytes per path-step: the weights 8 per monomial (48 for Platen, 24 for
# Euler-Maruyama), the unnormalized states 16 per amplitude stepped (d at
# most), the step factors 16 per amplitude per shift, and 33 for the noise
# increments, the squared norms, the norms, a scratch row and a finiteness
# mask; a few vectors over the paths come on top.  That is 1.2 MB at 2
# amplitudes and 1.7 MB at 4 with the one shift of a commuting Platen run,
# 1.45 MB at d = 2 with two shifts (decimal MB).  The output does not
# depend on it.
CHUNK_VALUES = 2**13
# A renormalizing run rescales psi only at step numbers divisible by this.
# A live path's norm changes by at most ABORT_NORM per step, so between
# rescales it stays within 1.5**64 (about 2e11) of 1.
_RESCALE_EVERY = 64


class PathAbortError(RuntimeError):
    """Raised when the aborted-path fraction exceeds the 1% budget."""


class FidelityRangeError(RuntimeError):
    """Raised when pre-clamp fidelities leave [0,1] by more than 1e-6."""


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
    kernel: str                   # "diagonal" if only shift 0 was stepped, else "dense"
    amplitudes: int               # amplitudes stepped per path: d, or fewer when diagonal


def _check_ops(H, S, d):
    H = np.asarray(H, dtype=complex)
    S = np.asarray(S, dtype=complex)
    if H.shape != (d, d) or S.shape != (d, d):
        raise ValueError("H, S and the state have inconsistent dimensions")
    return H, S


def _step_map(H, S, model, scheme, dt):
    """The scheme's step as one fixed map, built once per run: (M, (ax, an)).

    With D = -iH - (gamma^2/2) S'S, E = ik S and B = -i gamma S the step is
    psi' = sum_m w_m M_m psi over the monomials w = (1, x, N, x^2, xN, N^2)
    (Euler-Maruyama stops at N), and x' = ax x + an N.  M is the complex
    (terms, d, d) stack of the M_m.
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
    return np.array(mats), lin


def _sq_norms(a, out=None, tmp=None):
    """Squared norms over axis -2 of real-layout states.

    Summed row by row in a fixed order, so a state's norm does not depend
    on the array it sits in.  `out` and `tmp`, if given, are buffers of
    the result's shape.
    """
    out = np.square(a[..., 0, :], out=out)
    for j in range(1, a.shape[-2]):
        out += np.square(a[..., j, :], out=tmp)
    return out


def _eigenbasis(M, H, S):
    """The step map in a basis V of eigenvectors of S: (V, shifts, lam).

    V diagonalizes S, and H within each of S's degenerate eigenspaces, so
    every L_m = V'M_mV is diagonal when H and S commute.  lam[j] holds the
    wrapped diagonals L_m[i, (i + shifts[j]) mod d] of all the L_m, as a
    (len(shifts), terms, 2d) real array with Re and Im interleaved.
    shifts is 0 followed by every other shift with an entry above 1e-12 of
    the largest entry of some L_m.
    """
    d = len(H)
    s, V = np.linalg.eigh(S)
    cuts = np.flatnonzero(np.diff(s) > 1e-9 * max(1.0, np.abs(s).max())) + 1
    for block in np.split(np.arange(d), cuts):
        W = V[:, block]
        V[:, block] = W @ np.linalg.eigh(W.conj().T @ H @ W)[1]
    L = V.conj().T @ M @ V
    i = np.arange(d)
    lam = L[:, i, (i + i[:, None]) % d].transpose(1, 0, 2)
    tol = 1e-12 * np.abs(L).max(axis=(1, 2))[:, None]
    shifts = [0] + [o for o in range(1, d) if np.any(np.abs(lam[o]) > tol)]
    return V, shifts, np.ascontiguousarray(lam[shifts]).view(float)


def _occupied_classes(V, lam, phi0):
    """A diagonal step reduced to one amplitude per occupied class: (Q, lam, u).

    A class is a set of components whose columns of lam[0] agree over all
    monomials, to 1e-14 of each monomial's largest entry: every step
    multiplies them by one factor, so they move as one.  Components with
    |V'phi0| <= 1e-14 (phi0 has unit norm) are unreached and dropped: a
    degenerate eigh basis leaves round-off weight where the state has
    none, as on GHZ under the collective X.  Class c then keeps the
    single direction u_c = P_c phi0 / |P_c phi0| (P_c projects onto its
    columns of V), and the run steps the coordinates Q'psi over Q = [u_c]
    with lam's columns of one member of each class.  A class of one keeps
    its column of V, so the components a run keeps step as before.

    A class whose column is (1, 0, ..., 0), to the same tolerance, is
    inert: every step multiplies it by 1 (S and H vanish on it), so its
    part of psi stays (u'phi0) u.  Merging leaves at most one.  If another
    class is occupied, the inert one leaves Q and lam and comes back as u,
    else u is None.  When nothing merges, drops or leaves, V and lam come
    back as they are.
    """
    c0 = V.conj().T @ phi0
    L = lam[0].view(complex)
    tol = 1e-14 * np.abs(L).max(axis=1)
    classes = []
    for i in np.flatnonzero(np.abs(c0) > 1e-14):
        for m in classes:
            if np.all(np.abs(L[:, i] - L[:, m[0]]) <= tol):
                m.append(i)
                break
        else:
            classes.append([i])

    def direction(m):
        return V[:, m[0]] if len(m) == 1 else V[:, m] @ (c0[m] / np.linalg.norm(c0[m]))

    one = np.eye(len(L))[0]
    inert = next((m for m in classes if np.all(np.abs(L[:, m[0]] - one) <= tol)), None)
    u = None
    if inert is not None and len(classes) > 1:
        classes.remove(inert)
        u = direction(inert)
    elif len(classes) == len(c0):
        return V, lam, None
    Q = np.stack([direction(m) for m in classes], axis=1)
    return Q, np.ascontiguousarray(lam.view(complex)[..., [m[0] for m in classes]]).view(float), u


def _overlap_rows(phis):
    """Rows giving <phi|psi> for states psi in real layout: (..., 2, 2d).

    The layout holds Re and Im of each component side by side.  Row 0
    dotted with psi is Re <phi|psi> and row 1 is Im <phi|psi>.
    """
    return np.stack([np.ascontiguousarray(r).view(float) for r in (phis, 1j * phis)],
                    axis=-2)


def _overlap_sq(P, T, off=None):
    """|<phi|psi>|^2 of states P (rows, 2d, paths) against T (rows, 2, 2d).

    Summed component by component in a fixed order, so a value does not
    depend on the array it sits in.  `off`, if given, (rows, 2) holds Re
    and Im of an overlap each row adds on every path.
    """
    ov = T[:, :, 0, None] * P[:, None, 0]
    for j in range(1, P.shape[1]):
        ov += T[:, :, j, None] * P[:, None, j]
    if off is not None:
        ov += off[:, :, None]
    return ov[:, 0] ** 2 + ov[:, 1] ** 2


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

    phis = target_evolution(H, phi0, times)
    M, (ax, an) = _step_map(H, S, model, config.scheme, config.dt)
    terms = len(M)
    V, shifts, lam = _eigenbasis(M, H, S)
    u = None
    if len(shifts) == 1:
        V, lam, u = _occupied_classes(V, lam, phi0)
    # the amplitudes stepped per path: the columns of V
    amps = V.shape[1]
    # kept states come back over V and the inert direction u, if any
    out_basis = V if u is None else np.column_stack([V, u])
    rolls = [(np.arange(amps) + o) % amps for o in shifts[1:]]

    n_paths = config.n_paths
    fids = np.empty((n_paths, n_rec))
    states = np.empty((n_paths, n_rec, 2 * out_basis.shape[1])) if config.keep_states else None
    xs = np.empty((n_paths, n_rec)) if config.keep_states else None
    abort_step = np.full(n_paths, -1, dtype=np.int64)
    drift = 0.0

    # Path i draws from Philox(key=[seed, i]): the normals of its initial
    # noise value, then one normal per step, a block of steps at a time.  One
    # generator serves all paths.  For the first block one state dict of
    # Python ints is reused, its key edited in place per path (the setter
    # copies it), and one fill draws the path's leading normals and its
    # block; a path with more to draw keeps its stream state for the next
    # block, which swaps it back in.  That is far cheaper than building a
    # Philox per path.
    seed = config.master_seed & (2**64 - 1)
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [seed, 0]
    fresh = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0, "state": {"counter": [0] * 4, "key": key}}
    streams = [None] * n_paths
    block = min(TIME_BLOCK, max(1, BLOCK_NORMALS // n_paths))
    lead = noise_mod.initial_draws(model)
    normals = np.empty((n_paths, lead + min(block, n_steps)))
    body = normals[:, lead:]

    def draw_block(start):
        tb = min(block, n_steps - start)
        for i in range(n_paths):
            if start == 0:
                key[1] = i
                bitgen.state = fresh
                gen.standard_normal(out=normals[i, :lead + tb])
            else:
                bitgen.state = streams[i]
                gen.standard_normal(out=body[i, :tb])
            if start + tb < n_steps:
                streams[i] = bitgen.state
        return tb

    tb = draw_block(0)
    x0s = noise_mod.initial_x(model, normals[:, :lead])
    alive = np.ones(n_paths, dtype=bool)
    renorm = config.renormalize
    chunk = max(1, min(CHUNK_VALUES // n_paths, block, n_steps))
    # The chunk's buffers are allocated once: fresh ones cost page faults.
    # W[m] holds the monomial weight m of (1, x, N, x^2, xN, N^2)[:terms] at
    # each of the chunk's steps, one contiguous (steps, paths) slab per
    # monomial.  W has a step more, for its x slab: X[s] is the noise value
    # before the chunk's s-th step, and X[0] carries it over from the
    # previous chunk.
    W = np.empty((terms, chunk + 1, n_paths))
    W[0] = 1.0
    X = W[1]
    X[0] = x0s
    anN = np.empty((chunk, n_paths))
    axv = np.full(n_paths, ax)
    mul, add = np.multiply, np.add
    # Lists of row views: a step indexes a list, not an array.
    Xs, anNs = list(X), list(anN)
    # The factors of shift 0 and of the other shifts, each shift's in a
    # contiguous slab, so that a step reads them in one piece
    G0 = np.empty((chunk, n_paths, 2 * amps))
    G1 = np.empty((chunk, len(rolls), n_paths, 2 * amps))
    Gs, Gxs = list(G0.view(complex)), list(G1.view(complex))
    rolled = np.empty((n_paths, amps), dtype=complex)
    # C[s] is the unnormalized state after the chunk's s-th step, as the
    # (paths, amps) coordinates V'psi; row 0 carries the state over from the
    # previous chunk.  Psi views C in real layout, (2 amps, paths) per step.
    C = np.empty((chunk + 1, n_paths, amps), dtype=complex)
    C[0] = V.conj().T @ phi0
    Cs = list(C)
    Psi = np.swapaxes(C.view(float), 1, 2)
    # Squared norms and norms of the chunk's states; sq[0] carries over.
    sq, nrm, tmp = np.empty((3, chunk + 1, n_paths))
    finite = np.empty((chunk, n_paths), dtype=bool)
    targets = _overlap_rows(phis @ V.conj())
    if u is not None:
        # The inert part anchor * u of psi is the same on every path and at
        # every step: it adds |anchor|^2 to each squared norm and
        # <phi_t|u> anchor to each overlap.
        anchor = np.vdot(u, phi0)
        anchor_sq = anchor.real ** 2 + anchor.imag ** 2
        anchor_ov = (np.conj(phis @ u.conj()) * anchor).view(float).reshape(n_rec, 2)

    def record(rows, slots, sq, xrows):
        # F = |<phi|psi>|^2 / |psi|^2 (the state is unnormalized); rows of
        # aborted paths are recorded too, and dropped at the end
        P = Psi[rows]
        f = _overlap_sq(P, targets[slots], None if u is None else anchor_ov[slots])
        if renorm:
            f /= sq
        fids[:, slots] = f.T
        if states is not None:
            if renorm:
                P /= np.sqrt(sq)[:, None]
            states[:, slots, :2 * amps] = P.transpose(2, 0, 1)
            if u is not None:
                states.view(complex)[:, slots, amps] = (anchor / np.sqrt(sq) if renorm
                                                        else anchor).T
            xs[:, slots] = xrows.T

    step_no = 0
    # A path that dies inside a chunk runs on to the chunk's end and may
    # overflow there; its rows are dropped, so that stays silent.
    with np.errstate(over="ignore", invalid="ignore"):
        _sq_norms(Psi[:1], out=sq[:1])
        if u is not None:
            sq[:1] += anchor_sq
        record([0], [0], sq[:1], X[:1])
        # F at t = 0 from phi0 itself (1 for a basis state and H = 0), which
        # the coordinates V'phi0 would give only to round-off
        P0 = np.ascontiguousarray(phi0).view(float)[None, :, None]
        f0 = _overlap_sq(P0, _overlap_rows(phis[:1]))
        fids[:, 0] = (f0 / _sq_norms(P0) if renorm else f0).item()
        while step_no < n_steps:
            if step_no > 0:
                tb = draw_block(step_no)
            for c0 in range(0, tb, chunk):
                # the noise path and the weights never read psi
                nc = min(chunk, tb - c0)
                N = W[2, :nc]
                np.copyto(N, body[:, c0:c0 + nc].T)
                mul(N, an, anN[:nc])
                for prev, nxt, kick in zip(Xs, Xs[1:nc + 1], anNs):
                    mul(prev, axv, nxt)
                    add(nxt, kick, nxt)
                if terms == 6:
                    x = X[:nc]
                    mul(x, x, W[3, :nc])
                    mul(x, N, W[4, :nc])
                    mul(N, N, W[5, :nc])
                # every step's factors G_o = sum_m w_m lam_m,o, as one small
                # product per step, so that a step's factors do not depend
                # on the chunk length
                w = W[:, :nc].transpose(1, 2, 0)
                np.matmul(w, lam[0], out=G0[:nc])
                np.matmul(w[:, None], lam[1:], out=G1[:nc])
                # Only the linear update runs per step.  A renormalizing run
                # rescales at absolute step numbers divisible by
                # _RESCALE_EVERY (the chunk's steps due, due + _RESCALE_EVERY,
                # ...), keeping the norm before the rescale.  An anchored run
                # never does: its inert part keeps its scale.
                rescaled = {}
                due = (-step_no - 1) % _RESCALE_EVERY if renorm and u is None else nc
                for s in range(nc):
                    mul(Cs[s], Gs[s], Cs[s + 1])
                    if rolls:
                        for g, roll in zip(Gxs[s], rolls):
                            Cs[s].take(roll, axis=1, out=rolled)
                            mul(rolled, g, rolled)
                            add(Cs[s + 1], rolled, Cs[s + 1])
                    if s == due:
                        n = np.sqrt(_sq_norms(Psi[s + 1]))
                        np.divide(Psi[s + 1], n, out=Psi[s + 1], where=n > 0)
                        rescaled[s] = n
                        due += _RESCALE_EVERY
                _sq_norms(Psi[1:nc + 1], out=sq[1:nc + 1], tmp=tmp[:nc])
                if u is not None:
                    sq[1:nc + 1] += anchor_sq
                np.sqrt(sq[:nc + 1], out=nrm[:nc + 1])
                # the norm each step produced: of psi itself without
                # renormalizing, else its growth over the step
                norms = nrm[1:nc + 1]
                if renorm:
                    norms = tmp[:nc]
                    np.copyto(norms, nrm[1:nc + 1])
                    for s, n in rescaled.items():
                        norms[s] = n
                    np.divide(norms, nrm[:nc], out=norms, where=nrm[:nc] > 0)
                # A path dies at its first bad step (non-finite or too large a
                # norm, non-finite X); that step and later ones count for no
                # drift.  Most chunks have none: then the largest and the
                # smallest norm give the drift, as rounding n - 1 is monotone.
                top, low = float(norms.max()), float(norms.min())
                dead, live = None, alive
                if not (top <= ABORT_NORM and np.isfinite(X[1:nc + 1], out=finite[:nc]).all()):
                    bad = ~((norms <= ABORT_NORM) & np.isfinite(X[1:nc + 1])) & alive
                    first = np.where(bad.any(axis=0), bad.argmax(axis=0), nc)
                    live = (np.arange(nc)[:, None] < first) & alive
                    dead = first < nc
                if dead is None and alive.all():
                    drift = max(drift, top - 1.0, 1.0 - low)
                else:
                    dev = np.abs(np.subtract(norms, 1.0, out=norms), out=norms)
                    drift = max(drift, float(np.where(live, dev, 0.0).max()))
                rec = np.arange(rec_every - step_no % rec_every, nc + 1, rec_every)
                if len(rec):
                    record(rec, (step_no + rec) // rec_every, sq[rec], X[rec])
                C[0] = C[nc]
                X[0] = X[nc]
                sq[0] = sq[nc]
                if dead is not None:
                    abort_step[dead] = step_no + first[dead] + 1
                    alive &= ~dead
                    C[0][dead] = 0.0
                    X[0][dead] = 0.0
                    sq[0][dead] = 0.0
                step_no += nc

    aborted = tuple((int(i), int(abort_step[i])) for i in np.flatnonzero(~alive))
    if len(aborted) > MAX_ABORT_FRACTION * n_paths:
        raise PathAbortError(
            f"{len(aborted)} of {n_paths} paths aborted "
            f"(> {MAX_ABORT_FRACTION:.0%}); first at step {aborted[0][1]}"
        )
    rows = np.flatnonzero(alive)
    fid_rows = fids[rows]
    if states is not None:
        states = states[rows].view(complex) @ out_basis.T

    violation = 0.0
    if fid_rows.size:
        violation = max(0.0, float(fid_rows.max()) - 1.0, -float(fid_rows.min()))
    if violation > PRECLAMP_LIMIT:
        raise FidelityRangeError(
            f"fidelity left [0,1] by {violation:.3e} before clamping"
        )
    fid_rows = np.clip(fid_rows, 0.0, 1.0)

    # sums in path order: an accumulate is sequential, a reduce may be pairwise
    n_eff = len(rows)
    mean = np.full(n_rec, np.nan)
    var = np.full(n_rec, np.nan)
    stderr = np.full(n_rec, np.nan)
    if n_eff >= 1:
        acc = np.cumsum(fid_rows, axis=0)
        mean = acc[-1] / n_eff
    if n_eff >= 2:
        dev = np.subtract(fid_rows, mean, out=acc)
        np.multiply(dev, dev, out=dev)
        var = np.cumsum(dev, axis=0, out=dev)[-1] / (n_eff - 1)
        stderr = np.sqrt(var / n_eff)
    summary = SummaryTable(
        times=times, mean_f=mean, var_f=var, stderr_f=stderr, n_effective=n_eff
    )

    return SimulationResult(
        times=times,
        fidelities=fid_rows,
        path_indices=rows,
        initial_x=x0s[rows],
        terminal_x=X[0][rows],
        states=states,
        xs=None if xs is None else xs[rows],
        summary=summary,
        aborted=aborted,
        max_norm_drift=drift,
        max_range_violation=violation,
        kernel="diagonal" if len(shifts) == 1 else "dense",
        amplitudes=amps,
    )
