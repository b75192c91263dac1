"""Numerical Schrödinger evolution for pulse schedules.

The integrator is the sixth-order Magnus method with three Gauss-Legendre
nodes, 1/2 - sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10 of each step (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sec. 4), taken in the
detuning frame of the nearest pulse. In pulse k's frame the trion
amplitude carries an extra exp(-i*Delta_k*(t - c_k)), so that pulse's
carrier becomes the constant diagonal Delta_k - i*Gamma and its coupling
its real envelope; every other pulse j turns at Delta_k - Delta_j. Pulse
k's frame holds from the midpoint between c_{k-1} and c_k to the midpoint
between c_k and c_{k+1}; every pulse's coupling stays in the Hamiltonian,
so the change of frame is exact. Each step matrix is returned in the lab
frame, D(t+dt)^dagger exp(Omega_6) D(t), so frames never leak out of a
step.

One rule sets the steps: the local rate r(t) of the frame Hamiltonian.
Pulse j counts at max(Omega_j, eta_j, |Delta_j - Delta_k|) in the frame
k that t falls in, times h_j(t)**TAIL_POWER, h_j being its envelope
relative to its own peak, and r is the largest of these and the floor
max(omega_B, Gamma, |Delta_k|*RESOLUTION_TARGET/MAX_FRAME_PHASE). Steps
are RESOLUTION_TARGET/r(t) long.

TAIL_POWER = 1/7: a sixth-order method errs per step by O(dt^7), and a
term of relative height h varying at rate f contributes h*(f*dt)^7, so a
step of RESOLUTION_TARGET/(f*h**(1/7)) in a tail errs as much as a
full-height step of RESOLUTION_TARGET/f in a pulse core.

MAX_FRAME_PHASE = 1 rad: the Magnus series converges while a step's
integral of ||A||, A = -i*H, stays below pi. The frame's own detuning is
part of A; the exponential takes it exactly, but Omega_6 truncates its
commutators with the coupling, so the error grows with |Delta_k|*dt. The
floor keeps |Delta_k|*dt <= 1 rad, well inside the radius, with the
coupling and precession adding about RESOLUTION_TARGET. So a single 2*pi
pulse at eta = 1 takes 1,093 steps up to |Delta| = 28.6 and 38.2*|Delta|
past that; from |Delta| ~ 52,000 the grid passes MAX_STEPS and is refused.

propagate steps uniformly at RESOLUTION_TARGET over the maximum of r,
taken in closed form (for one pulse, max(Omega, eta, omega_B, Gamma,
|Delta|*RESOLUTION_TARGET/MAX_FRAME_PHASE)). evolve_operator and
propagate_backward step on a graded grid, the inverse of the cumulative
integral of r, so steps stretch where the envelopes are small: a gate
pair takes about 720 steps against 1,500 uniform ones. An explicit
IntegratorOpts.dt always gives the uniform grid and the StepTooLarge
guard.

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
    sech,
    warn_if_fast_precession,
)

# default step targets dt*fmax = RESOLUTION_TARGET; the hard guard rejects
# anything with dt*fmax >= RESOLUTION_GUARD
RESOLUTION_TARGET = 0.035
RESOLUTION_GUARD = 0.1
MAX_STEPS = 2_000_000
# Magnus-6's local error from a term of relative height h varying at rate f
# scales as h*(f*dt)^7, so a step of RESOLUTION_TARGET/(f*h**TAIL_POWER)
# errs as much as a full-height step of RESOLUTION_TARGET/f
TAIL_POWER = 1.0 / 7.0
# largest phase, in rad, the frame detuning may turn in one step; the
# Magnus series converges while the step's integral of ||A|| stays below pi
MAX_FRAME_PHASE = 1.0
# spacing, in units of 1/eta, of the auxiliary grid the graded grid is read off
RATE_SAMPLING = 0.1
# two pulses count as overlapping when both envelopes exceed this fraction
# of their own peak at some instant; sub-percent tail contact is harmless
# because the Hamiltonian sums all pulse couplings exactly
OVERLAP_FRACTION = 1e-2

# three-point Gauss nodes on [0, 1]
GAUSS_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
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
    terms' commutators with the couplings, and |delta| scaled so that the
    frame turns at most MAX_FRAME_PHASE per step.
    """
    floor = abs(delta) * RESOLUTION_TARGET / MAX_FRAME_PHASE
    r = np.full(np.shape(t), max(s.omega_B, s.decay_rate, floor))
    for p in sched.pulses:
        fastest = np.maximum(max(p.rabi_peak, p.bandwidth), abs(p.detuning - delta))
        np.maximum(r, fastest * sech(p.bandwidth * (t - p.center)) ** TAIL_POWER, out=r)
    return r


def _frequency_scale(sched: PulseSchedule, s: SystemParams) -> float:
    """Maximum of the local rate over the window, in closed form: inside
    pulse k's frame each pulse's share peaks at the point nearest its own
    center. For a single pulse this is max(Omega, eta, omega_B, Gamma,
    |Delta|*RESOLUTION_TARGET/MAX_FRAME_PHASE)."""
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


def _frame_runs(sched: PulseSchedule, t: np.ndarray):
    """(k, a, b) per run of times t[a:b] in pulse k's frame: the nearest
    pulse, switching at midpoints between centers. The times are monotone,
    so each frame is one run. No pulses: no runs (the lab frame)."""
    if not sched.pulses:
        return
    centers = np.array([p.center for p in sched.pulses])
    k = np.searchsorted(0.5 * (centers[1:] + centers[:-1]), t)
    edges = np.flatnonzero(np.diff(k)) + 1
    for a, b in zip(np.r_[0, edges], np.r_[edges, k.shape[0]]):
        yield int(k[a]), a, b


def _frame_coupling(t: np.ndarray, pulses: Sequence[PulseParams], k: int) -> np.ndarray:
    """(z, trion) entry of the frame Hamiltonian in pulse k's frame,
    V(t)*exp(i*Delta_k*(t - c_k)): pulse k's own term is its real envelope,
    and every other pulse j turns at Delta_k - Delta_j."""
    pk = pulses[k]
    u = np.zeros(t.shape, dtype=complex)
    for j, p in enumerate(pulses):
        env = p.rabi_peak * sech(p.bandwidth * (t - p.center))
        if j == k:
            u += env
        else:
            u += env * np.exp(1j * (pk.detuning * (t - pk.center) - p.detuning * (t - p.center)))
    return u


def _magnus6(u: np.ndarray, h, w: float, d: np.ndarray) -> np.ndarray:
    """Omega_6 per step from the frame Hamiltonian at the three Gauss nodes.

    H = [[0, w, 0], [w, 0, u], [0, u*, d]] with u (3, n) at the nodes and
    d = Delta_k - i*Gamma; A = -i*H. With alpha_1 = h*A_2, alpha_2 =
    (sqrt(15)/3)*h*(A_3 - A_1), alpha_3 = (10/3)*h*(A_3 - 2*A_2 + A_1),
    C_1 = [alpha_1, alpha_2] and C_2 = -[alpha_1, 2*alpha_3 + C_1]/60,
    Omega_6 = alpha_1 + alpha_3/12 + [-20*alpha_1 - alpha_3 + C_1, alpha_2 + C_2]/240
    (Blanes, Casas, Oteo & Ros 2009, sec. 4). alpha_2 and alpha_3 hold only
    the (z, trion) entries, so C_1 and C_2 are written out entrywise.
    """
    # alpha_1's entries: (zbar, z) = (z, zbar), (z, trion), (trion, z), (trion, trion)
    a = -1j * h * w
    b = -1j * h * u[1]
    c = -1j * h * np.conj(u[1])
    e = -1j * h * d
    du = u[2] - u[0]
    ddu = du - 2.0 * (u[1] - u[0])
    k2 = (-1j * np.sqrt(15.0) / 3.0) * h
    k3 = (-10j / 3.0) * h
    p2, q2 = k2 * du, k2 * np.conj(du)          # alpha_2's (z, trion), (trion, z)
    p3, q3 = k3 * ddu, k3 * np.conj(ddu)        # alpha_3's
    # C_1; its (trion, trion) entry is -c11
    c02, c11, c12, c20, c21 = a * p2, b * q2 - c * p2, -e * p2, -a * q2, e * q2
    # Y = 2*alpha_3 + C_1 differs from C_1 only in y12 and y21
    y12, y21 = c12 + 2.0 * p3, c21 + 2.0 * q3
    # W = alpha_2 + C_2 = alpha_2 - [alpha_1, Y]/60
    wm = np.empty((3, 3, u.shape[1]), dtype=complex)
    wm[0, 0] = 0.0
    wm[0, 1] = a * c11 - c * c02
    wm[0, 2] = a * y12 - e * c02
    wm[1, 0] = b * c20 - a * c11
    wm[1, 1] = b * y21 - c * y12
    wm[1, 2] = a * c02 - 2.0 * b * c11 - e * y12
    wm[2, 0] = e * c20 - a * y21
    wm[2, 1] = 2.0 * c * c11 + e * y21 - a * c20
    wm[2, 2] = c * y12 - b * y21
    wm *= -1.0 / 60.0
    wm[1, 2] += p2
    wm[2, 1] += q2
    # Z = -20*alpha_1 - alpha_3 + C_1
    z = np.empty_like(wm)
    z[0, 0] = 0.0
    z[0, 1] = z[1, 0] = -20.0 * a
    z[0, 2] = c02
    z[1, 1] = c11
    z[1, 2] = c12 - 20.0 * b - p3
    z[2, 0] = c20
    z[2, 1] = c21 - 20.0 * c - q3
    z[2, 2] = -20.0 * e - c11
    omega = _mul(z, wm)
    omega -= _mul(wm, z)
    omega *= 1.0 / 240.0
    omega[0, 1] += a
    omega[1, 0] += a
    omega[1, 2] += b + p3 / 12.0
    omega[2, 1] += c + q3 / 12.0
    omega[2, 2] += e
    return omega


def _taylor(x: np.ndarray) -> np.ndarray:
    """Degree-8 Taylor polynomial of exp, Paterson-Stockmeyer: 4 products."""
    x2 = _mul(x, x)
    x3 = _mul(x2, x)
    c = TAYLOR_COEFS
    b0, b1, b2 = (c[k + 1] * x + c[k + 2] * x2 for k in (0, 3, 6))
    del x2
    for i in range(3):
        b0[i, i] += c[0]
        b1[i, i] += c[3]
        b2[i, i] += c[6]
    # b0 + x3 @ (b1 + x3 @ b2), accumulated in place to keep the peak low
    e = _mul(x3, b2)
    e += b1
    e = _mul(x3, e)
    e += b0
    return e


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


def _step_matrices(times: np.ndarray, dt, sched: PulseSchedule,
                   s: SystemParams) -> np.ndarray:
    """Lab-frame Magnus-6 step matrices, (3, 3, len(times) - 1); slice k maps
    psi(times[k]) to psi(times[k + 1]). dt (a scalar or one per step) < 0
    steps backward."""
    t = times[:-1]
    nodes = t + GAUSS_NODES[:, None] * dt
    u = np.zeros(nodes.shape, dtype=complex)
    delta = np.zeros(t.shape)
    center = np.zeros(t.shape)
    for k, a, b in _frame_runs(sched, t + 0.5 * dt):
        delta[a:b] = sched.pulses[k].detuning
        center[a:b] = sched.pulses[k].center
        u[:, a:b] = _frame_coupling(nodes[:, a:b], sched.pulses, k)
    omega = _magnus6(u, dt, s.omega_B, delta - 1j * s.decay_rate)
    del nodes, u                         # not held through the exponential's peak
    m = _expm(omega)
    # to the lab frame, D(t + dt)^dagger exp(Omega_6) D(t), where D(t)
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
    its own center) plus the precession and optional decay terms. Magnus-6
    steps in per-pulse detuning frames on a uniform grid; a pulse's own
    detuning sets the step count only where a step would turn it by more
    than MAX_FRAME_PHASE. States are returned in the lab frame.
    Raises StepTooLarge if the grid cannot resolve the fastest envelope,
    Rabi, precession, decay, frame or neighbour-tail rate within MAX_STEPS,
    NormBlowup if the norm grows.
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
    the same Magnus-6 steps as propagate but on the graded grid (the
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
