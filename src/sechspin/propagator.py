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

One rule sets the steps: the local rate r(t) of the frame Hamiltonian,
each term weighted by its leading local error, so that a step of
RESOLUTION_TARGET/r(t) errs about equally wherever it falls. With
S_j = max(Omega_j, eta_j) and h_j(t) pulse j's envelope relative to its
own peak, pulse j counts in the frame k that t falls in at

    max(S_j*(1 + (|Delta_k|/S_j)**3)**(1/7),
        S_j**(1/7)*|Delta_j - Delta_k|**(6/7),
        |Delta_k|*RESOLUTION_TARGET/MAX_FRAME_PHASE) * h_j(t)**TAIL_POWER,

and r is the largest of these and the floor max(omega_B, Gamma,
|Delta_k|*RESOLUTION_TARGET/MAGNUS_RADIUS).

TAIL_POWER = 1/7: a sixth-order method errs per step by O(dt^7), and a
term of relative height h varying at rate f contributes h*(f*dt)^7, so a
step of RESOLUTION_TARGET/(f*h**(1/7)) in a tail errs as much as a
full-height step of RESOLUTION_TARGET/f in a pulse core.

The cubic term: the frame's own detuning is part of A = -i*H. The
exponential takes it exactly, but Omega_6 truncates its commutators with
the coupling, whose leading error grows as S**4*|Delta_k|**3*dt**7
against S**7*dt**7 from the coupling's own rates (Blanes et al. 2009,
sec. 4), so the detuning adds steps from |Delta_k| ~ S on. The 6/7
power: in frame k pulse j's carrier turns at f = |Delta_j - Delta_k|,
and the Gauss nodes integrate that oscillation with an error of
S_j*dt*(f*dt)**6.

MAX_FRAME_PHASE = 0.6 rad, MAGNUS_RADIUS = pi: where a pulse is at full
height a step turns the frame by at most 0.6 rad; on the shoulders and in
the tails the cap grows as h**-TAIL_POWER, but never past pi, inside
which the Magnus series converges (a step's integral of ||A|| below pi).
From |Delta| ~ 43*S the cap is the largest term (a 1 rad cap at every
height let phi err by 1.9e-9 near |Delta| = 25; without the pi bound,
trion entries err by 9e-10 at |Delta| = 100). At RESOLUTION_TARGET = 0.07
numeric phi and alpha at 0.29 T stay within 4.6e-11 and 5.7e-11 of a run
at a quarter of the uniform step 0.035/fmax for |Delta| from 0.01 to 100,
and gate operators' qubit blocks at the default spacing within 6.1e-11,
up to 2.7 T and |gamma| = 3.

propagate and evolve_operator step on the graded grid, the inverse of
the cumulative integral of r, so steps stretch where the envelopes are
small. A single 2*pi pulse at eta = 1 has 206 grid steps for |Delta| up
to 0.1, 228 at |Delta| = 1, 330 at 3, 550 at 10 and 698 at 17.1; from
|Delta| ~ 43 every term of r is proportional to |Delta| and the grid has
25.5*|Delta| steps, whatever RESOLUTION_TARGET. From |Delta| ~ 78,500
the grid passes MAX_STEPS and is refused. A gate pair at the default
spacing has 386 to 444 steps for |gamma| <= pi/2 and 1,613 at
gamma = 3. Without pulses the rate is the constant max(omega_B, Gamma)
and the grid uniform. An explicit IntegratorOpts.dt always gives the
uniform grid and the StepTooLarge guard on dt times the peak of the
unweighted rate (see _frequency_scale).

Even schedules, one pulse whose center c splits the window into two
bitwise-equal halves (every numeric phase decomposition), get a mirrored
grid: the half [c, t_end] by the rule above, reflected about c. With
decay off and no explicit dt, propagate integrates only that half, so a
pulse's 228 grid steps at |Delta| = 1 take 114 integrated ones: in the
lab frame H(c - s) = H(c + s)^T, so with V(s) = U(c + s, c) and
T = t_end - c, psi(c) = V(T)^T psi0 and psi(c - s) = (V(s)^-1)^T psi(c),
the inverse transpose taken through cofactors. Magnus-6 steps are
time-symmetric, so this holds step by step, and the states match a
forward run on the same grid to rounding. Only a half that fits one
chunk (CHUNK_STEPS = 8,192 steps, |Delta| up to about 640 at eta = 1)
is mirrored: a longer one needs a second pass after V(T), which
measured no faster than stepping forward over the whole grid.

propagate_many runs many such halves at once, which is where a sweep of
short halves spends its time: a half of 114 steps costs about as much in
per-call overhead as in arithmetic. Consecutive mirrored halves, up to
PACK_STEPS steps together, are laid end to end as one pack. One pass
builds the pack's Magnus-6 steps, and one block scan, padded to whole
blocks per half and restarting at each, takes their running products and
the inverse transposes. Every step and every product is the one the half
would get alone, so a trajectory's bits do not depend on its pack;
propagate is a pack of one.

evolve_operators does the same for gates, whose sweeps are hundreds of
grids of 386 to 1,613 steps. Consecutive gates share a pack while their
count times the pack's longest grid stays within OPERATOR_PACK_STEPS =
2,048 steps; their grids are built one pack at a time and laid end to
end, and one pass builds the pack's Magnus-6 steps, with omega_B and
Gamma per step, so the fields and lifetimes of one angle share a pack.
One pairwise fold over a (3, 3, gates, longest) stack, each gate's steps
padded with identities, gives every operator: an exact identity changes
no bits, so each operator is the one its gate gets alone. A grid longer
than the cap is folded alone, chunk by chunk, and evolve_operator is a
pack of one. The pack's arrays set the peak memory: about 2 MB for the
step build at 2,048 steps, so a process running the README fidelity
sweep with its B = 0 slice peaks at 34.0 MB RSS, as with one gate at a
time, against 36.0 MB at 4,096 steps and 39.4 MB at 8,192.

Step matrices are built vectorized over chunks of the grid or over a
pack, in a component-major (3, 3, n) layout so each entry is one
contiguous vector, and exponentiated by batched scaling and squaring of
a Taylor polynomial. Every trajectory reads its states off the running
products of its step matrices, chunk by chunk or from its pack; the
final operator alone comes from a pairwise fold. Grids depend only on
the inputs, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ENVELOPE_TAIL_ARG,
    PulseParams,
    StateVector,
    SystemParams,
    _require_finite,
    sech,
    warn_if_fast_precession,
)

# graded steps are RESOLUTION_TARGET/r(t) long
RESOLUTION_TARGET = 0.07
# the hard guard rejects an explicit dt with dt*fmax >= RESOLUTION_GUARD,
# fmax the peak of the unweighted rate with the frame term at GUARD_TARGET
# (see _frequency_scale): dt may turn the frame detuning by up to
# MAX_FRAME_PHASE*RESOLUTION_GUARD/GUARD_TARGET = 1.71 rad per step
RESOLUTION_GUARD = 0.1
GUARD_TARGET = 0.035
MAX_STEPS = 2_000_000
# Magnus-6's local error from a term of relative height h varying at rate f
# scales as h*(f*dt)^7, so a step of RESOLUTION_TARGET/(f*h**TAIL_POWER)
# errs as much as a full-height step of RESOLUTION_TARGET/f
TAIL_POWER = 1.0 / 7.0
# largest phase, in rad, the frame detuning may turn in one step where a
# pulse is at full height; at relative height h the cap is
# MAX_FRAME_PHASE/h**TAIL_POWER, up to MAGNUS_RADIUS
MAX_FRAME_PHASE = 0.6
# the Magnus series converges while a step's integral of ||A|| stays below
# pi, so no step turns the frame detuning further anywhere
MAGNUS_RADIUS = math.pi
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
# steps built at once, and block length of the running products (a power of 2)
CHUNK_STEPS = 8192
SCAN_BLOCK = 16
# the running products double in-block prefixes up to this many blocks, where
# fewer, larger products beat the per-call overhead of sequential ones
# (doubling against sequential on a 2-core Xeon: 0.23 against 0.42 ms at
# 413 steps, even near 2,048, 2.6 against 1.6 ms at 8,192)
SCAN_DOUBLING_BLOCKS = 128
# half steps in one pack of mirrored trajectories (see propagate_many). The
# pack's arrays set the peak memory: a process running the README phase
# sweep reads +0.5 % peak RSS at 1,024 steps, +5 % at 2,048 and +30 % at
# 8,192, against one trajectory at a time. A pack of at most PACK_STEPS half
# steps has at most SCAN_DOUBLING_BLOCKS blocks, since every half has at
# least 8 steps
PACK_STEPS = 1024
# gates times longest grid in one pack of operators (see evolve_operators);
# the peak memory grows with it (module docstring)
OPERATOR_PACK_STEPS = 2048


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


def schedule_for_pulses(pulses: Sequence[PulseParams]) -> PulseSchedule:
    """Window the pulses with a margin of arccosh(1e8)/eta per side, where
    the truncated envelope is down to 1e-8 of peak."""
    if not pulses:
        raise ValueError("need at least one pulse (or build PulseSchedule directly)")
    first, last = pulses[0], pulses[-1]
    return PulseSchedule(pulses, (first.center - ENVELOPE_TAIL_ARG / first.bandwidth,
                                  last.center + ENVELOPE_TAIL_ARG / last.bandwidth))


@dataclass(frozen=True)
class IntegratorOpts:
    dt: Optional[float] = None     # ps, uniform steps; None steps on the graded grid
    sample_stride: int = 1

    def __post_init__(self):
        if self.dt is not None:
            _require_finite(dt=self.dt)
            if not self.dt > 0:
                raise ValueError("dt must be positive")
        if not isinstance(self.sample_stride, (int, np.integer)) or self.sample_stride < 1:
            raise ValueError("sample_stride must be an integer >= 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray    # (n,) strictly increasing
    states: np.ndarray   # (n, 3) complex amplitudes
    norms: np.ndarray    # (n,) sum of |amplitude|^2


def _frame_spans(sched: PulseSchedule):
    """(pulse, start, end) of each pulse's frame inside the window: pulse k's
    frame runs between the midpoints to its neighbours' centers."""
    pulses = sched.pulses
    bounds = ([sched.window[0]] + [0.5 * (a.center + b.center) for a, b in zip(pulses, pulses[1:])]
              + [sched.window[1]])
    return zip(pulses, bounds, bounds[1:])


def _rate(sched: PulseSchedule, s: SystemParams, delta: float, t: np.ndarray) -> np.ndarray:
    """Local rate r(t) of the Hamiltonian in a frame of detuning delta.

    Each term counts at the rate at which a step of RESOLUTION_TARGET/r
    leaves the same leading Magnus-6 error. With S_j = max(Omega_j, eta_j),
    pulse j counts at the largest of S_j*(1 + (|delta|/S_j)**3)**(1/7)
    (its coupling's own rates and the frame diagonal's commutators with
    it, which err as S_j**4*|delta|**3*dt**7), S_j**(1/7)*|Delta_j -
    delta|**(6/7) (its carrier in this frame, which the Gauss nodes
    integrate with an error of S_j*dt*(f*dt)**6) and
    |delta|*RESOLUTION_TARGET/MAX_FRAME_PHASE (the frame cap), times its
    height h_j relative to its own peak to the TAIL_POWER: each of these
    errs through the coupling. The floor max(omega_B, Gamma,
    |delta|*RESOLUTION_TARGET/MAGNUS_RADIUS) covers the constant terms'
    commutators with the couplings and keeps every step inside the Magnus
    radius.
    """
    frame = abs(delta) * RESOLUTION_TARGET
    r = np.full(np.shape(t), max(s.omega_B, s.decay_rate, frame / MAGNUS_RADIUS))
    for p in sched.pulses:
        core = max(p.rabi_peak, p.bandwidth)
        fastest = max(_commutator_rate(core, abs(delta)),
                      core ** TAIL_POWER * abs(p.detuning - delta) ** (1.0 - TAIL_POWER),
                      frame / MAX_FRAME_PHASE)
        np.maximum(r, fastest * sech(p.bandwidth * (t - p.center)) ** TAIL_POWER, out=r)
    return r


def _commutator_rate(core: float, d: float) -> float:
    """core*(1 + (d/core)**3)**TAIL_POWER, scaled by max(core, d) so that
    no power overflows."""
    m = max(core, d)
    return core ** (1.0 - 3.0 * TAIL_POWER) * m ** (3.0 * TAIL_POWER) * (
        (core / m) ** 3 + (d / m) ** 3) ** TAIL_POWER


def _frequency_scale(sched: PulseSchedule, s: SystemParams) -> float:
    """Scale an explicit dt is guarded against: the peak over the window of
    the unweighted rate, in which pulse j counts in frame k at
    max(Omega_j, eta_j, |Delta_j - Delta_k|,
    |Delta_k|*GUARD_TARGET/MAX_FRAME_PHASE) times h_j**TAIL_POWER, with a
    floor of max(omega_B, Gamma). In closed form: inside pulse k's frame
    each pulse's share peaks at the point nearest its own center. For a
    single pulse this is max(Omega, eta, omega_B, Gamma,
    |Delta|*GUARD_TARGET/MAX_FRAME_PHASE)."""
    f = max(s.omega_B, s.decay_rate)
    centers = [p.center for p in sched.pulses]
    for pk, a, b in _frame_spans(sched):
        t = np.clip(centers, a, b)
        frame = abs(pk.detuning) * GUARD_TARGET / MAX_FRAME_PHASE
        for p in sched.pulses:
            fastest = max(p.rabi_peak, p.bandwidth, abs(p.detuning - pk.detuning), frame)
            f = max(f, float((fastest * sech(p.bandwidth * (t - p.center)) ** TAIL_POWER).max()))
    return f


def _check_steps(n: int, what: str = "steps") -> None:
    if n > MAX_STEPS:
        raise StepTooLarge(
            "grid would need %.3g %s (> %d); pass a coarser dt or shrink the window"
            % (n, what, MAX_STEPS))


def _even_center(sched: PulseSchedule) -> Optional[float]:
    """Center c of an even schedule, one pulse whose center splits the
    window into two bitwise-equal halves; None for any other schedule."""
    if len(sched.pulses) != 1:
        return None
    c = sched.pulses[0].center
    t0, t1 = sched.window
    return c if c - t0 == t1 - c else None


def _graded_grid(sched: PulseSchedule, s: SystemParams) -> np.ndarray:
    """Grid whose steps are RESOLUTION_TARGET/r(t) long.

    The cumulative integral of the local rate is taken by the trapezoid
    rule on an auxiliary grid, RATE_SAMPLING/eta apart in each frame (r
    changes by at most 2 % there, and the frame edges, where it jumps,
    are auxiliary points); the step times invert it. For an even schedule
    (see _even_center) this builds the half [c, t_end] and mirrors it
    about c, so both halves have the same steps. Without pulses the rate
    is the constant max(omega_B, Gamma), and the grid uniform.
    """
    if not sched.pulses:
        # at least 16 steps: with omega_B = Gamma = 0, H = 0 and any grid is exact
        rate = max(s.omega_B, s.decay_rate)
        n = max(int(np.ceil(sched.duration * rate / RESOLUTION_TARGET)), 16)
        _check_steps(n)
        return np.linspace(*sched.window, n + 1)
    center = _even_center(sched)
    halves = 1 if center is None else 2
    spans = _frame_spans(sched) if center is None else [(sched.pulses[0], center, sched.window[1])]
    per_ps = max(p.bandwidth for p in sched.pulses) / RATE_SAMPLING
    spans = [(pk, a, b, int(np.ceil((b - a) * per_ps))) for pk, a, b in spans]
    _check_steps(sum(m for *_, m in spans), "rate samples")
    aux, cum, total = [], [], 0.0
    for pk, a, b, m in spans:
        t = np.linspace(a, b, m + 1)
        r = _rate(sched, s, pk.detuning, t)
        c = total + np.concatenate([[0.0], np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(t))])
        aux.append(t)
        cum.append(c)
        total = c[-1]
    n = max(int(np.ceil(total / RESOLUTION_TARGET)), 16 // halves)
    _check_steps(halves * n)
    times = np.interp(np.linspace(0.0, total, n + 1), np.concatenate(cum), np.concatenate(aux))
    if center is not None:
        times = np.concatenate([2.0 * center - times[:0:-1], times])
    # where every envelope underflows and the floor is 0, H = 0 and the
    # cumulative rate is flat; the grid still has to span the window
    times[[0, -1]] = sched.window
    return times


def _times(sched: PulseSchedule, s: SystemParams, opts: IntegratorOpts) -> np.ndarray:
    """Step grid: uniform for an explicit opts.dt, which must pass the
    resolution guard at the peak rate; otherwise graded. Warns at the
    caller of propagate, propagate_many, evolve_operators or
    evolve_operator if precession is fast."""
    if sched.pulses:
        # the warning names the nearest frame outside this module
        level, frame = 2, sys._getframe()
        while frame.f_globals.get("__name__") == __name__:
            level, frame = level + 1, frame.f_back
        warn_if_fast_precession(s, min(p.bandwidth for p in sched.pulses), level)
    if opts.dt is None:
        return _graded_grid(sched, s)
    fmax = _frequency_scale(sched, s)
    if opts.dt * fmax >= RESOLUTION_GUARD:
        raise StepTooLarge(
            "dt*fmax = %.3g exceeds the resolution guard %.2g"
            % (opts.dt * fmax, RESOLUTION_GUARD))
    n = max(int(np.ceil(sched.duration / opts.dt)), 2)
    _check_steps(n)
    return np.linspace(*sched.window, n + 1)


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
    bounds = [0, *(np.flatnonzero(np.diff(k)) + 1).tolist(), k.shape[0]]
    for a, b in zip(bounds, bounds[1:]):
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


def _magnus6(u: np.ndarray, h, w, d: np.ndarray) -> np.ndarray:
    """Omega_6 per step from the frame Hamiltonian at the three Gauss nodes.

    H = [[0, w, 0], [w, 0, u], [0, u*, d]] with u (3, n) at the nodes,
    w = omega_B and d = Delta_k - i*Gamma per step (w may be a scalar);
    A = -i*H. With alpha_1 = h*A_2, alpha_2 =
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

    def b(k):
        # c[k] + c[k+1]*x + c[k+2]*x2, built just before use to keep the peak low
        bk = c[k + 1] * x + c[k + 2] * x2
        for i in range(3):
            bk[i, i] += c[k]
        return bk

    # b0 + x3 @ (b1 + x3 @ b2), accumulated in place
    e = _mul(x3, b(6))
    e += b(3)
    e = _mul(x3, e)
    e += b(0)
    return e


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each (3, 3) slice by scaling and squaring: every matrix is
    scaled by 2^-k to 1-norm <= TAYLOR_THETA with its own k, all go through
    one Taylor pass, and squaring level l touches only the slices with
    k >= l. x is left unchanged; where the caller keeps no reference to
    it (see _step_matrices), CPython 3.11 and later free the unscaled stack
    before the Taylor pass."""
    norm = np.abs(x).sum(axis=0).max(axis=0)
    scale = np.maximum(np.frexp(norm / TAYLOR_THETA)[1], 0)
    x = x * np.ldexp(1.0, -scale)
    e = _taylor(x)
    del x
    for level in range(1, int(scale.max(initial=0)) + 1):
        sel = scale >= level
        if sel.all():
            e = _mul(e, e)
        else:
            # a masked copy comes out step-major; products want entries contiguous
            sq = np.ascontiguousarray(e[..., sel])
            e[..., sel] = _mul(sq, sq)
    return e


def _step_matrices(grids: Sequence[Tuple[np.ndarray, PulseSchedule]],
                   s: SystemParams | Sequence[SystemParams]) -> np.ndarray:
    """Lab-frame Magnus-6 step matrices of grids laid end to end, as
    (3, 3, total steps). grids holds (times, schedule) pairs and s is one
    SystemParams for all of them or a sequence with one per grid; in each
    grid's segment, slice k maps psi(times[k]) to psi(times[k + 1]) under
    its schedule and system. Every step is built as it would be alone."""
    systems = [s] * len(grids) if isinstance(s, SystemParams) else s
    t = np.concatenate([times[:-1] for times, _ in grids])
    t_next = np.concatenate([times[1:] for times, _ in grids])
    dt = t_next - t
    nodes = t + GAUSS_NODES[:, None] * dt
    mid = t + 0.5 * dt
    u = np.zeros(nodes.shape, dtype=complex)
    delta = np.zeros(t.shape)
    center = np.zeros(t.shape)
    omega_b = np.empty(t.shape)
    decay = np.empty(t.shape)
    start = 0
    for (times, sched), system in zip(grids, systems):
        stop = start + times.shape[0] - 1
        omega_b[start:stop] = system.omega_B
        decay[start:stop] = system.decay_rate
        for k, a, b in _frame_runs(sched, mid[start:stop]):
            run = slice(start + a, start + b)
            delta[run] = sched.pulses[k].detuning
            center[run] = sched.pulses[k].center
            u[:, run] = _frame_coupling(nodes[:, run], sched.pulses, k)
        start = stop
    del nodes, mid
    # Omega_6 is passed without a name, so _expm frees it once scaled
    m = _expm(_magnus6(u, dt, omega_b, delta - 1j * decay))
    # to the lab frame, D(t + dt)^dagger exp(Omega_6) D(t), where D(t)
    # multiplies the trion amplitude by exp(-i*Delta_k*(t - c_k))
    m[:, 2] *= np.exp(-1j * delta * (t - center))
    m[2] *= np.exp(1j * delta * (t_next - center))
    return m


def _chunks(times: np.ndarray):
    """Grid pieces of at most CHUNK_STEPS steps, sharing their end points."""
    n = times.shape[0] - 1
    for a in range(0, n, CHUNK_STEPS):
        yield a, times[a:min(a + CHUNK_STEPS, n) + 1]


def _block_counts(lengths: Sequence[int]) -> list:
    """Whole SCAN_BLOCK blocks that segments of these lengths fill."""
    return [-(-n // SCAN_BLOCK) for n in lengths]


def _block_prefixes(m: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Prefix products of m inside blocks of SCAN_BLOCK steps, vectorized
    across blocks, as (3, 3, blocks, SCAN_BLOCK). m holds segments of the
    given lengths end to end, and each is padded with identities to whole
    blocks, so no block straddles two segments. While no segment has more
    than SCAN_DOUBLING_BLOCKS blocks the prefixes double: after the pass
    with offset d, slot j holds the product of steps j - 2d + 1..j, so
    log2(SCAN_BLOCK) batched products replace SCAN_BLOCK - 1 sequential
    ones at about 3x the arithmetic. Past that the products run in
    sequence. m is overwritten."""
    counts = _block_counts(lengths)
    width = sum(counts) * SCAN_BLOCK
    if width > m.shape[-1]:
        padded = np.zeros((3, 3, width), dtype=complex)
        for i in range(3):
            padded[i, i] = 1.0
        a = b = 0
        for n, nb in zip(lengths, counts):
            padded[..., b:b + n] = m[..., a:a + n]
            a, b = a + n, b + nb * SCAN_BLOCK
        m = padded
    blocks = m.reshape(3, 3, -1, SCAN_BLOCK)
    if max(counts) <= SCAN_DOUBLING_BLOCKS:
        d = 1
        while d < SCAN_BLOCK:
            blocks[..., d:] = _mul(blocks[..., d:], blocks[..., :-d])
            d *= 2
    else:
        for j in range(1, SCAN_BLOCK):
            blocks[..., j] = _mul(blocks[..., j], blocks[..., j - 1])
    return blocks


def _running_products(m: np.ndarray, lengths: Optional[Sequence[int]] = None) -> np.ndarray:
    """m[..., a + k] @ ... @ m[..., a] for every step k of every segment,
    as (3, 3, n): m holds segments of the given lengths end to end (by
    default one, all of m), and the products restart at each segment's
    first step a. A lone segment of up to SCAN_BLOCK matrices runs in
    sequence; otherwise block prefixes, with the running products of the
    segment's earlier block totals (the same scan one level up, segment by
    segment) applied to each block after a segment's first. So each
    segment gets the bits it would get alone. m is overwritten."""
    n = m.shape[-1]
    if lengths is None:
        if n <= SCAN_BLOCK:
            for k in range(1, n):
                m[..., k] = m[..., k] @ m[..., k - 1]
            return m
        lengths = [n]
    blocks = _block_prefixes(m, lengths)
    counts = _block_counts(lengths)
    firsts = np.cumsum([0] + counts[:-1])
    upto = np.concatenate(
        [_running_products(np.ascontiguousarray(blocks[:, :, a:a + nb - 1, -1]))
         for a, nb in zip(firsts, counts)], axis=-1)
    later = np.ones(blocks.shape[2], dtype=bool)
    later[firsts] = False
    blocks[:, :, later] = _mul(blocks[:, :, later], upto[..., None])
    flat = blocks.reshape(3, 3, -1)
    if len(lengths) == 1:
        return flat[..., :n]
    return np.concatenate([flat[..., a * SCAN_BLOCK:a * SCAN_BLOCK + k]
                           for a, k in zip(firsts, lengths)], axis=-1)


def _inverse_transpose(a: np.ndarray) -> np.ndarray:
    """(a^-1)^T of each slice of a (3, 3, ...) stack: its cofactor matrix
    over its determinant."""
    cof = np.empty(a.shape, dtype=complex)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            np.multiply(a[i1, j1], a[i2, j2], out=cof[i, j, ...])
            cof[i, j, ...] -= a[i1, j2] * a[i2, j1]
    cof *= 1.0 / (a[0, 0] * cof[0, 0] + a[0, 1] * cof[0, 1] + a[0, 2] * cof[0, 2])
    return cof


def _fold(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[..., -1] @ ... @ mats[..., 0] by pairwise reduction."""
    cur = mats
    while cur.shape[-1] > 1:
        n = cur.shape[-1]
        paired = _mul(cur[..., 1:n - n % 2:2], cur[..., 0:n - n % 2:2])
        cur = np.concatenate([paired, cur[..., n - 1:]], axis=-1) if n % 2 else paired
    return cur[..., 0]


def _norms(states: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", states, states.conj()).real


class _Rows:
    """One trajectory's sampled rows, every sample_stride-th grid row and
    the last, stored in any order; the norm check covers every row stored,
    sampled or not."""

    def __init__(self, psi0: np.ndarray, times: np.ndarray, stride: int):
        n = times.shape[0] - 1
        idx = np.arange(0, n + 1, stride)
        if idx[-1] != n:
            idx = np.append(idx, n)
        self.psi0, self.times, self.idx = psi0, times, idx
        self.states = np.empty((idx.shape[0], 3), dtype=complex)
        self.norms = np.empty(idx.shape[0])
        self.peak = 0.0

    def store(self, rows: np.ndarray, start: int) -> None:
        """Keep the sampled ones of rows, grid rows start.. in order."""
        row_norms = _norms(rows)
        self.peak = np.maximum(self.peak, row_norms.max())
        lo, hi = np.searchsorted(self.idx, [start, start + rows.shape[0]])
        sel = self.idx[lo:hi] - start
        self.states[lo:hi] = rows[sel]
        self.norms[lo:hi] = row_norms[sel]

    def trajectory(self) -> Trajectory:
        """The trajectory, once every row after the first is stored; the
        first is psi0 itself."""
        self.store(self.psi0[None], 0)
        if not self.peak <= 1.0 + 1e-6:
            raise NormBlowup("norm reached %.9f" % self.peak)
        return Trajectory(self.times[self.idx], self.states, self.norms)


def _forward(sched: PulseSchedule, s: SystemParams, rows: _Rows) -> None:
    """States at every grid time after the first, stepped from psi0 by each
    chunk's running products."""
    psi = rows.psi0
    for a, piece in _chunks(rows.times):
        v = _running_products(_step_matrices([(piece, sched)], s))
        chunk = np.einsum("ijk,j->ki", v, psi)
        rows.store(chunk, a + 1)
        psi = chunk[-1]


def _mirrored(pack, s: SystemParams) -> None:
    """States at every grid time after the first for a pack of even
    schedules, (schedule, rows) each, whose mirrored grids have halves
    [c, t_end] of at most CHUNK_STEPS steps, stepping only those halves
    (see the module docstring): the step from c - s_{k+1} to c - s_k is
    the transpose of the one from c + s_k to c + s_{k+1}.

    The halves are laid end to end: one _step_matrices call builds their
    steps and one _running_products call, restarting at each half, gives
    V(s_k) for every k of each; a half's last is its V(T). Applied to
    psi(c) they give the half after c, and their inverse transposes, in
    reverse, the half before it. With decay off V is unitary, so
    (V^-1)^T = conj(V) and the cofactor inverse is perfectly conditioned;
    conj(V) itself would carry the steps' unitarity defect, rounding that
    grows with the squarings of _expm, along the products.
    """
    halves = [(rows.times[(rows.times.shape[0] - 1) // 2:], sched) for sched, rows in pack]
    lengths = [half.shape[0] - 1 for half, _ in halves]
    v = _running_products(_step_matrices(halves, s), lengths)
    w = _inverse_transpose(v)
    a = 0
    for (_, rows), n in zip(pack, lengths):
        seg = v[..., a:a + n]
        psi_c = seg[..., -1].T @ rows.psi0
        rows.store(np.concatenate([psi_c[None], np.einsum("ijk,j->ki", seg, psi_c)]), n)
        rows.store(np.einsum("ijk,j->ki", w[..., a:a + n], psi_c)[::-1], 0)
        a += n


def propagate_many(psi0s: Sequence[StateVector], scheds: Sequence[PulseSchedule],
                   s: SystemParams, opts: Optional[IntegratorOpts] = None) -> Iterator[Trajectory]:
    """Trajectories for each (psi0, schedule) pair, in order, each the one
    propagate returns for its pair.

    Even schedules that propagate would mirror (decay off, no explicit dt,
    halves of at most CHUNK_STEPS steps) share packs: consecutive ones, up
    to PACK_STEPS half steps a pack, have their halves' steps built and
    their running products taken in one pass each (see _mirrored), and a
    half longer than PACK_STEPS runs alone. Every other schedule steps
    forward on its own. Entries stay numerically independent: each gets
    the bits it would get alone. Each trajectory is yielded once it and
    every one before it are done, so a caller that lets each go before
    the next holds at most one pack's.
    """
    opts = opts or IntegratorOpts()
    psi0s, scheds = list(psi0s), list(scheds)
    if len(psi0s) != len(scheds):
        raise ValueError("need one start state per schedule")
    if any(abs(psi0.norm_sq - 1.0) > 1e-9 for psi0 in psi0s):
        raise ValueError("psi0 must be normalized")
    mirror = opts.dt is None and s.decay_rate == 0
    waiting, pack, filled = [], [], 0
    for psi0, sched in zip(psi0s, scheds):
        times = _times(sched, s, opts)
        rows = _Rows(psi0.amplitudes, times, opts.sample_stride)
        half = (times.shape[0] - 1) // 2
        if mirror and _even_center(sched) is not None and half <= CHUNK_STEPS:
            if pack and filled + half > PACK_STEPS:
                _mirrored(pack, s)
                yield from (done.trajectory() for done in waiting)
                waiting, pack, filled = [], [], 0
            pack.append((sched, rows))
            filled += half
        else:
            _forward(sched, s, rows)
        waiting.append(rows)
        if not pack:
            yield rows.trajectory()
            waiting = []
    if pack:
        _mirrored(pack, s)
    yield from (done.trajectory() for done in waiting)


def propagate(psi0: StateVector, sched: PulseSchedule, s: SystemParams,
              opts: Optional[IntegratorOpts] = None) -> Trajectory:
    """Solve i d(psi)/dt = H(t) psi over the schedule window.

    H sums every pulse coupling (each with its detuning phase anchored at
    its own center) plus the precession and optional decay terms. Magnus-6
    steps in per-pulse detuning frames on the graded grid, or on the
    uniform one for an explicit opts.dt; a pulse's own detuning adds
    steps through its commutators with the coupling from |Delta| ~ eta
    on, and sets them alone where a step would turn it by more than
    MAX_FRAME_PHASE, relaxed by the envelope in the tails up to
    MAGNUS_RADIUS. States are returned in the lab frame. An even
    schedule with decay off, no explicit dt and halves of at most
    CHUNK_STEPS steps integrates only the half after the pulse center c;
    the half before it follows by time reversal, psi(c - s) =
    (V(s)^-1)^T psi(c) with V(s) = U(c + s, c), through cofactors.
    Raises StepTooLarge if the grid cannot resolve the fastest envelope,
    Rabi, precession, decay, frame or neighbour-tail rate within MAX_STEPS
    (or an explicit dt breaks the resolution guard), NormBlowup if the
    norm grows. A pack of one in propagate_many.
    """
    return next(propagate_many([psi0], [sched], s, opts))


def _operator(folds) -> np.ndarray:
    """Product of a gate's chunk folds, earliest first, onto the identity."""
    u = np.eye(3, dtype=complex)
    for fold in folds:
        u = fold @ u
    return u


def _packed_operators(pack) -> list:
    """Operators of a pack of (times, schedule, system) gates: one
    _step_matrices pass over their grids laid end to end, then one _fold
    over a (3, 3, gates, longest) stack in which each gate's steps are
    padded with identities, which change no bits."""
    lengths = [times.shape[0] - 1 for times, _, _ in pack]
    m = _step_matrices([(times, sched) for times, sched, _ in pack], [s for *_, s in pack])
    stack = np.zeros((3, 3, len(pack), max(lengths)), dtype=complex)
    for i in range(3):
        stack[i, i] = 1.0
    a = 0
    for k, n in enumerate(lengths):
        stack[:, :, k, :n] = m[..., a:a + n]
        a += n
    del m
    folds = np.ascontiguousarray(np.moveaxis(_fold(stack), -1, 0))
    return [_operator([fold]) for fold in folds]


def evolve_operators(scheds: Sequence[PulseSchedule], systems: Sequence[SystemParams],
                     opts: Optional[IntegratorOpts] = None) -> list:
    """Evolution operators for each (schedule, system) pair, in order, each
    the one evolve_operator returns for its pair.

    Consecutive gates share packs while the pack's gate count times its
    longest grid stays within OPERATOR_PACK_STEPS steps: their grids are
    built one pack at a time, their steps in one _step_matrices pass
    (omega_B and Gamma are per-step arrays, so gates of different fields
    and lifetimes mix) and their products in one fold (see
    _packed_operators). A grid longer than OPERATOR_PACK_STEPS runs alone,
    folded chunk by chunk.
    """
    opts = opts or IntegratorOpts()
    scheds, systems = list(scheds), list(systems)
    if len(scheds) != len(systems):
        raise ValueError("need one SystemParams per schedule")
    ops, pack, longest = [], [], 0
    for sched, s in zip(scheds, systems):
        times = _times(sched, s, opts)
        n = times.shape[0] - 1
        if pack and (len(pack) + 1) * max(longest, n) > OPERATOR_PACK_STEPS:
            ops += _packed_operators(pack)
            pack, longest = [], 0
        if n > OPERATOR_PACK_STEPS:
            ops.append(_operator(_fold(_step_matrices([(piece, sched)], s))
                                 for _, piece in _chunks(times)))
        else:
            pack.append((times, sched, s))
            longest = max(longest, n)
    if pack:
        ops += _packed_operators(pack)
    return ops


def evolve_operator(sched: PulseSchedule, s: SystemParams,
                    opts: Optional[IntegratorOpts] = None) -> np.ndarray:
    """Time-ordered evolution operator over the window, basis (zbar, z, trion).

    Columns are the propagated basis states, in the lab frame, built from
    the same Magnus-6 steps on the same grid as propagate: graded, or
    uniform if opts.dt is given. Unitary to rounding without decay, a
    contraction with decay on. A pack of one in evolve_operators.
    """
    return evolve_operators([sched], [s], opts)[0]


def truncate_qubit(u3: np.ndarray) -> np.ndarray:
    """Upper-left 2x2 block, basis (zbar, z). No renormalization: the lost
    weight is physical population left in the trion level or decayed away."""
    u3 = np.asarray(u3)
    return u3[:2, :2].copy()
