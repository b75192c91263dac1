"""Numerical Schrödinger evolution for pulse schedules.

The integrator is the fourth-order Magnus method with two-point Gauss
nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), taken in
the detuning frame of the nearest pulse. In pulse k's frame the trion
amplitude carries an extra exp(-i*Delta_k*(t - c_k)), so that pulse's
carrier becomes the constant diagonal Delta_k - i*Gamma, which the matrix
exponential handles exactly. Pulse k's frame holds from the midpoint
between c_{k-1} and c_k to the midpoint between c_k and c_{k+1}; every
pulse's coupling stays in the Hamiltonian, so the change of frame is
exact. Each step matrix is returned in the lab frame,
D(t+dt)^dagger exp(Omega_4) D(t), so frames never leak out of a step.

One rule sets the steps: the local rate r(t) of the frame Hamiltonian.
Pulse j counts at max(Omega_j, eta_j, |Delta_j - Delta_k|) in the frame
k that t falls in, times h_j(t)**(1/5), h_j being its envelope relative
to its own peak, and r is the largest of these and the floor
max(omega_B, Gamma). A pulse's own detuning is the frame's constant
diagonal and never counts, so a single pulse's grid does not depend on
it; a neighbour's tail turns at the difference of the two detunings. The
fifth root gives each step of RESOLUTION_TARGET/r(t) the local error of
a step in a pulse core (see TAIL_POWER).

propagate steps uniformly at RESOLUTION_TARGET over the maximum of r,
taken in closed form (for one pulse, max(Omega, eta, omega_B, Gamma)).
evolve_operator and propagate_backward step on a graded grid, the
inverse of the cumulative integral of r, so steps stretch where the
envelopes are small: a gate pair takes about 2,000 steps against 5,223
uniform ones. An explicit IntegratorOpts.dt always gives the uniform grid
and the StepTooLarge guard.

Step matrices are built vectorized over chunks of the grid, in a
component-major (3, 3, n) layout so each entry is one contiguous vector,
and exponentiated by batched scaling and squaring of a Taylor polynomial.
They are consumed by a blocked O(n) scan (full trajectory) or a pairwise
fold (final operator only). Grids depend only on the inputs, so runs are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import (
    ENVELOPE_TAIL_ARG,
    PulseParams,
    StateVector,
    SystemParams,
    coupling,
    sech,
    warn_if_fast_precession,
)

# default step targets dt*fmax = RESOLUTION_TARGET; the hard guard rejects
# anything with dt*fmax >= RESOLUTION_GUARD
RESOLUTION_TARGET = 0.01
RESOLUTION_GUARD = 0.1
MAX_STEPS = 2_000_000
# Magnus-4's local error from a term of relative height h varying at rate f
# scales as h*(f*dt)^5, so a step of RESOLUTION_TARGET/(f*h**TAIL_POWER)
# errs as much as a full-height step of RESOLUTION_TARGET/f
TAIL_POWER = 0.2
# spacing, in units of 1/eta, of the auxiliary grid the graded grid is read off
RATE_SAMPLING = 0.1
# two pulses count as overlapping when both envelopes exceed this fraction
# of their own peak at some instant; sub-percent tail contact is harmless
# because the Hamiltonian sums all pulse couplings exactly
OVERLAP_FRACTION = 1e-2

# two-point Gauss nodes on [0, 1]
GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
# degree-8 Taylor: the dropped tail is below 2^-53 relative for norm <= 1/16
TAYLOR_THETA = 1.0 / 16.0
TAYLOR_COEFS = tuple(1.0 / math.factorial(k) for k in range(9))
# steps built at once, and block length of the trajectory scan
CHUNK_STEPS = 8192
SCAN_BLOCK = 16


class StepTooLarge(ValueError):
    """Requested step violates the resolution guard."""


class NormBlowup(ArithmeticError):
    """Norm grew past 1 + 1e-6, integration is untrustworthy."""


@dataclass(frozen=True)
class PulseSchedule:
    pulses: Tuple[PulseParams, ...]
    window: Tuple[float, float]

    def __init__(self, pulses: Sequence[PulseParams], window: Tuple[float, float]):
        object.__setattr__(self, "pulses", tuple(pulses))
        object.__setattr__(self, "window", (float(window[0]), float(window[1])))
        self._validate()

    def _validate(self):
        t0, t1 = self.window
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise ValueError("window must be finite, got (%r, %r)" % (t0, t1))
        if not t1 > t0:
            raise ValueError("window must have t_end > t_start")
        centers = [p.center for p in self.pulses]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError("pulse centers must be strictly increasing")
        for p in self.pulses:
            margin = 5.0 / p.bandwidth
            if p.center - t0 < margin or t1 - p.center < margin:
                raise ValueError(
                    "window must contain each pulse center with margin >= 5/eta")
        self._check_overlap()

    def _check_overlap(self):
        # envelope j is above the fraction exactly on |t - c_j| < x/eta_j;
        # with ordered centers only neighbours' intervals can meet first
        x = float(np.arccosh(1.0 / OVERLAP_FRACTION))
        for a, b in zip(self.pulses, self.pulses[1:]):
            if a.center + x / a.bandwidth > b.center - x / b.bandwidth:
                raise ValueError(
                    "pulses overlap: more than one envelope above %g of peak"
                    % OVERLAP_FRACTION)

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]


def schedule_for_pulses(pulses: Sequence[PulseParams],
                        margin: Optional[float] = None) -> PulseSchedule:
    """Window the pulses with a default margin of arccosh(1e8)/eta per side,
    where the truncated envelope is down to 1e-8 of peak."""
    if not pulses:
        raise ValueError("need at least one pulse (or build PulseSchedule directly)")
    first, last = pulses[0], pulses[-1]
    m0 = margin if margin is not None else ENVELOPE_TAIL_ARG / first.bandwidth
    m1 = margin if margin is not None else ENVELOPE_TAIL_ARG / last.bandwidth
    return PulseSchedule(pulses, (first.center - m0, last.center + m1))


@dataclass(frozen=True)
class IntegratorOpts:
    dt: Optional[float] = None     # ps; None picks dt from the resolution target
    sample_stride: int = 1

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray    # (n,) strictly increasing
    states: np.ndarray   # (n, 3) complex amplitudes
    norms: np.ndarray    # (n,) sum of |amplitude|^2

    def state_at(self, i: int) -> StateVector:
        return StateVector(self.states[i])

    @property
    def final_state(self) -> StateVector:
        return StateVector(self.states[-1])


def _frame_spans(sched: PulseSchedule):
    """(pulse, start, end) of each pulse's frame inside the window: pulse k's
    frame runs between the midpoints to its neighbours' centers."""
    pulses = sched.pulses
    bounds = ([sched.window[0]] + [0.5 * (a.center + b.center) for a, b in zip(pulses, pulses[1:])]
              + [sched.window[1]])
    return zip(pulses, bounds, bounds[1:])


def _rate(sched: PulseSchedule, s: SystemParams, delta: float, t: np.ndarray) -> np.ndarray:
    """Local rate r(t) of the Hamiltonian in a frame of detuning delta.

    Pulse j counts at its fastest rate there, max(Omega_j, eta_j,
    |Delta_j - delta|), times its height h_j relative to its own peak to
    the TAIL_POWER; the floor max(omega_B, Gamma) covers the constant
    terms' commutators with the couplings.
    """
    r = np.full(np.shape(t), max(s.omega_B, s.decay_rate))
    for p in sched.pulses:
        fastest = np.maximum(max(p.rabi_peak, p.bandwidth), abs(p.detuning - delta))
        np.maximum(r, fastest * sech(p.bandwidth * (t - p.center)) ** TAIL_POWER, out=r)
    return r


def _frequency_scale(sched: PulseSchedule, s: SystemParams) -> float:
    """Maximum of the local rate over the window, in closed form: inside
    pulse k's frame each pulse's share peaks at the point nearest its own
    center. For a single pulse this is max(Omega, eta, omega_B, Gamma)."""
    f = max(s.omega_B, s.decay_rate)
    centers = [p.center for p in sched.pulses]
    for pk, a, b in _frame_spans(sched):
        f = max(f, float(_rate(sched, s, pk.detuning, np.clip(centers, a, b)).max()))
    return f


def _uniform_steps(sched: PulseSchedule, s: SystemParams, opts: IntegratorOpts):
    """Step count n and step of the uniform grid: dt from opts, else
    RESOLUTION_TARGET over the peak rate."""
    t0, t1 = sched.window
    span = t1 - t0
    fmax = _frequency_scale(sched, s)
    if opts.dt is not None:
        if opts.dt * fmax >= RESOLUTION_GUARD:
            raise StepTooLarge(
                "dt*fmax = %.3g exceeds the resolution guard %.2g"
                % (opts.dt * fmax, RESOLUTION_GUARD))
        n = max(int(np.ceil(span / opts.dt)), 2)
    elif fmax == 0.0:
        n = 16                     # H = 0, any grid is exact
    else:
        n = max(int(np.ceil(span * fmax / RESOLUTION_TARGET)), 16)
    _check_steps(n)
    return n, span / n


def _uniform_times(window: Tuple[float, float], n: int, k: np.ndarray) -> np.ndarray:
    """np.linspace(*window, n + 1)[k] without building the grid: the same
    k*step + t0 arithmetic, and the end point exactly t1."""
    t0, t1 = window
    t = k * ((t1 - t0) / n) + t0
    t[k == n] = t1
    return t


def _grid(sched: PulseSchedule, s: SystemParams, opts: IntegratorOpts):
    """The whole uniform grid (n + 1 times) and its step."""
    n, dt = _uniform_steps(sched, s, opts)
    return _uniform_times(sched.window, n, np.arange(n + 1)), dt


def _check_steps(n: int, what: str = "steps") -> None:
    if n > MAX_STEPS:
        raise StepTooLarge(
            "grid would need %d %s (> %d); pass a coarser dt or shrink the window"
            % (n, what, MAX_STEPS))


def _graded_grid(sched: PulseSchedule, s: SystemParams) -> np.ndarray:
    """Grid whose steps are RESOLUTION_TARGET/r(t) long.

    The cumulative integral of the local rate is taken by the trapezoid
    rule on an auxiliary grid, RATE_SAMPLING/eta apart in each frame (r
    changes by at most 2 % there, and the frame edges, where it jumps,
    are auxiliary points); the step times invert it.
    """
    if not sched.pulses:
        return _grid(sched, s, IntegratorOpts())[0]    # constant rate
    per_ps = max(p.bandwidth for p in sched.pulses) / RATE_SAMPLING
    spans = [(pk, a, b, int(np.ceil((b - a) * per_ps))) for pk, a, b in _frame_spans(sched)]
    _check_steps(sum(m for *_, m in spans), "rate samples")
    aux, cum, total = [], [], 0.0
    for pk, a, b, m in spans:
        t = np.linspace(a, b, m + 1)
        r = _rate(sched, s, pk.detuning, t)
        c = total + np.concatenate([[0.0], np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(t))])
        aux.append(t)
        cum.append(c)
        total = c[-1]
    n = max(int(np.ceil(total / RESOLUTION_TARGET)), 16)
    _check_steps(n)
    times = np.interp(np.linspace(0.0, total, n + 1), np.concatenate(cum), np.concatenate(aux))
    # where every envelope underflows and the floor is 0, H = 0 and the
    # cumulative rate is flat; the grid still has to span the window
    times[[0, -1]] = sched.window
    return times


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 3x3 products a @ b in the (3, 3, ...) layout, row by row
    with each entry a contiguous vector."""
    out = np.empty(a.shape, dtype=complex)
    for i in range(3):
        np.multiply(a[i, 0], b[0], out=out[i])
        out[i] += a[i, 1] * b[1]
        out[i] += a[i, 2] * b[2]
    return out


def _frames(sched: PulseSchedule, t: np.ndarray):
    """Detuning and center of the frame each time falls in: the nearest
    pulse, switching at midpoints between centers. No pulses: the lab."""
    if not sched.pulses:
        return np.zeros_like(t), np.zeros_like(t)
    deltas = np.array([p.detuning for p in sched.pulses])
    centers = np.array([p.center for p in sched.pulses])
    k = np.searchsorted(0.5 * (centers[1:] + centers[:-1]), t)
    return deltas[k], centers[k]


def _magnus4(t: np.ndarray, dt: float, sched: PulseSchedule, s: SystemParams,
             delta: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Omega_4 = -i*dt*(H1 + H2)/2 - (sqrt(3)/12)*dt^2*[H2, H1] per step.

    H1, H2 are the frame Hamiltonians [[0, w, 0], [w, 0, u], [0, u*, d]]
    at the Gauss nodes, u = V*exp(i*Delta_k*(t - c_k)) and
    d = Delta_k - i*Gamma; the commutator is written out entrywise.
    """
    u1, u2 = (coupling(tn, sched.pulses) * np.exp(1j * delta * (tn - center))
              for tn in (t + GAUSS_NODES[0] * dt, t + GAUSS_NODES[1] * dt))
    d = delta - 1j * s.decay_rate
    w = s.omega_B
    kappa = np.sqrt(3.0) / 12.0 * dt * dt
    du = u1 - u2
    q = u2 * np.conj(u1) - u1 * np.conj(u2)
    x = np.zeros((3, 3, t.shape[0]), dtype=complex)
    x[0, 1] = x[1, 0] = -1j * dt * w
    x[0, 2] = -kappa * w * du
    x[2, 0] = kappa * w * np.conj(du)
    x[1, 1] = -kappa * q
    x[1, 2] = -0.5j * dt * (u1 + u2) + kappa * d * du
    x[2, 1] = -0.5j * dt * np.conj(u1 + u2) - kappa * d * np.conj(du)
    x[2, 2] = -1j * dt * d + kappa * q
    return x


def _taylor(x: np.ndarray) -> np.ndarray:
    """Degree-8 Taylor polynomial of exp, Paterson-Stockmeyer: 4 products."""
    x2 = _mul(x, x)
    x3 = _mul(x2, x)
    c = TAYLOR_COEFS
    b0, b1, b2 = (c[k + 1] * x + c[k + 2] * x2 for k in (0, 3, 6))
    for i in range(3):
        b0[i, i] += c[0]
        b1[i, i] += c[3]
        b2[i, i] += c[6]
    return b0 + _mul(x3, b1 + _mul(x3, b2))


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each (3, 3) slice by scaling and squaring: every matrix is
    scaled by 2^-k to 1-norm <= TAYLOR_THETA with its own k, all go through
    one Taylor pass, and squaring level l touches only the slices with
    k >= l."""
    norm = np.abs(x).sum(axis=0).max(axis=0)
    scale = np.maximum(np.frexp(norm / TAYLOR_THETA)[1], 0)
    e = _taylor(x * np.ldexp(1.0, -scale))
    for level in range(1, int(scale.max(initial=0)) + 1):
        sel = scale >= level
        if sel.all():
            e = _mul(e, e)
        else:
            # a masked copy comes out step-major; products want entries contiguous
            sq = np.ascontiguousarray(e[..., sel])
            e[..., sel] = _mul(sq, sq)
    return e


def _step_matrices(times: np.ndarray, dt: float, sched: PulseSchedule,
                   s: SystemParams) -> np.ndarray:
    """Lab-frame Magnus-4 step matrices, (3, 3, len(times) - 1); slice k maps
    psi(times[k]) to psi(times[k + 1]). dt < 0 steps backward."""
    t = times[:-1]
    delta, center = _frames(sched, t + 0.5 * dt)
    m = _expm(_magnus4(t, dt, sched, s, delta, center))
    # to the lab frame, D(t + dt)^dagger exp(Omega_4) D(t), where D(t)
    # multiplies the trion amplitude by exp(-i*Delta_k*(t - c_k))
    m[:, 2] *= np.exp(-1j * delta * (t - center))
    m[2] *= np.exp(1j * delta * (times[1:] - center))
    return m


def _chunks(times: np.ndarray):
    """Grid pieces of at most CHUNK_STEPS steps, sharing their end points."""
    n = times.shape[0] - 1
    for a in range(0, n, CHUNK_STEPS):
        yield a, times[a:min(a + CHUNK_STEPS, n) + 1]


def _scan(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States after each step, m[..., k] @ ... @ m[..., 0] @ psi, as (n, 3).

    Blocked: prefix products inside blocks of SCAN_BLOCK steps, vectorized
    across blocks; the block totals then carry psi from block to block (the
    same scan one level up). O(n) work; m is overwritten.
    """
    n = m.shape[-1]
    if n <= SCAN_BLOCK:
        out = np.empty((n, 3), dtype=complex)
        for k in range(n):
            psi = m[..., k] @ psi
            out[k] = psi
        return out
    nb = -(-n // SCAN_BLOCK)
    if nb * SCAN_BLOCK > n:
        eye = np.eye(3, dtype=complex)[..., None]
        m = np.concatenate([m, np.broadcast_to(eye, (3, 3, nb * SCAN_BLOCK - n))], axis=-1)
    blocks = m.reshape(3, 3, nb, SCAN_BLOCK)
    for j in range(1, SCAN_BLOCK):
        blocks[..., j] = _mul(blocks[..., j], blocks[..., j - 1])
    carried = _scan(np.ascontiguousarray(blocks[..., -1]), psi)
    starts = np.concatenate([psi[None], carried[:-1]])
    states = np.einsum("ijbk,bj->bki", blocks, starts)
    return states.reshape(-1, 3)[:n]


def _fold(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[..., -1] @ ... @ mats[..., 0] by pairwise reduction."""
    cur = mats
    while cur.shape[-1] > 1:
        n = cur.shape[-1]
        paired = _mul(cur[..., 1:n - n % 2:2], cur[..., 0:n - n % 2:2])
        cur = np.concatenate([paired, cur[..., n - 1:]], axis=-1) if n % 2 else paired
    return cur[..., 0]


def _operator(sched: PulseSchedule, s: SystemParams, opts: IntegratorOpts,
              backward: bool = False) -> np.ndarray:
    """Product of the step matrices over the window (from its end back to
    its start if backward): on the uniform grid for an explicit dt, else
    on the graded grid."""
    times = _grid(sched, s, opts)[0] if opts.dt is not None else _graded_grid(sched, s)
    if backward:
        times = times[::-1]
    u = np.eye(3, dtype=complex)
    for _, piece in _chunks(times):
        u = _fold(_step_matrices(piece, np.diff(piece), sched, s)) @ u
    return u


def _norms(states: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", states, states.conj()).real


def propagate(psi0: StateVector, sched: PulseSchedule, s: SystemParams,
              opts: Optional[IntegratorOpts] = None) -> Trajectory:
    """Solve i d(psi)/dt = H(t) psi over the schedule window.

    H sums every pulse coupling (each with its detuning phase anchored at
    its own center) plus the precession and optional decay terms. Magnus-4
    steps in per-pulse detuning frames on a uniform grid whose step count
    does not depend on a pulse's own detuning, only on how far it differs
    from a neighbour's; states are returned in the lab frame.
    Raises StepTooLarge if the grid cannot resolve the fastest envelope,
    Rabi, precession, decay or neighbour-tail rate, NormBlowup if the norm grows.
    """
    opts = opts or IntegratorOpts()
    if abs(psi0.norm_sq - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    if sched.pulses:
        warn_if_fast_precession(s, min(p.bandwidth for p in sched.pulses))
    n, dt = _uniform_steps(sched, s, opts)
    idx = np.arange(0, n + 1, opts.sample_stride)
    if idx[-1] != n:
        idx = np.append(idx, n)
    # only the sampled rows are kept, and each chunk's times are computed
    # from the step index; every step's norm enters the maximum
    states = np.empty((idx.shape[0], 3), dtype=complex)
    norms = np.empty(idx.shape[0])
    psi = states[0] = psi0.amplitudes
    norms[0] = peak = _norms(states[:1])[0]
    for a in range(0, n, CHUNK_STEPS):
        b = min(a + CHUNK_STEPS, n)
        piece = _uniform_times(sched.window, n, np.arange(a, b + 1))
        chunk = _scan(_step_matrices(piece, dt, sched, s), psi)
        chunk_norms = _norms(chunk)
        peak = np.maximum(peak, chunk_norms.max())
        lo, hi = np.searchsorted(idx, [a + 1, b + 1])
        states[lo:hi] = chunk[idx[lo:hi] - a - 1]
        norms[lo:hi] = chunk_norms[idx[lo:hi] - a - 1]
        psi = chunk[-1]
    if not peak <= 1.0 + 1e-6:
        raise NormBlowup("norm reached %.9f" % peak)
    return Trajectory(_uniform_times(sched.window, n, idx), states, norms)


def propagate_backward(psi_end: StateVector, sched: PulseSchedule, s: SystemParams,
                       opts: Optional[IntegratorOpts] = None) -> StateVector:
    """Integrate the same equation from t_end back to t_start.

    Equivalent to evolving the time-mirrored schedule under the negated
    Hamiltonian; used to check integrator reversibility.
    """
    u = _operator(sched, s, opts or IntegratorOpts(), backward=True)
    return StateVector(u @ psi_end.amplitudes)


def evolve_operator(sched: PulseSchedule, s: SystemParams,
                    opts: Optional[IntegratorOpts] = None) -> np.ndarray:
    """Time-ordered evolution operator over the window, basis (zbar, z, trion).

    Columns are the propagated basis states, in the lab frame, built from
    the same Magnus-4 steps as propagate but on the graded grid (the
    uniform one if opts.dt is given). Unitary to rounding without decay, a
    contraction with decay on.
    """
    if sched.pulses:
        warn_if_fast_precession(s, min(p.bandwidth for p in sched.pulses))
    return _operator(sched, s, opts or IntegratorOpts())


def truncate_qubit(u3: np.ndarray) -> np.ndarray:
    """Upper-left 2x2 block, basis (zbar, z). No renormalization: the lost
    weight is physical population left in the trion level or decayed away."""
    u3 = np.asarray(u3)
    return u3[:2, :2].copy()
