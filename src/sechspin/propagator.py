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

propagate_many and evolve_operators run many entries at once, which is
where a sweep spends its time: a mirrored half of 114 steps, or a gate
of about 400, costs about as much in per-call overhead as in arithmetic.
Both cut every grid into pieces, a mirrored half or else chunks of at
most CHUNK_STEPS steps, and one rule packs the pieces (_packs):
consecutive ones share a pack while their count times the most steps
stays within PACK_STEPS = 2,048 steps, a half counting as its whole
grid, so a longer piece is a pack of one. One _step_matrices pass builds
the pack's Magnus-6 steps with no loop over its grids: omega_B, Gamma,
each step's frame detuning and center and each pulse's parameters are
per-step arrays over the pack (one value where every grid shares it),
and the frame coupling takes one pass a pulse index. So the fields and
lifetimes of one angle share a pack (_packed). The steps go
into one (3, 3, pieces, width) stack, each row padded with identities
after its last step (_stack). _fold folds it into every piece's product,
which multiplies its gate's operator, earliest chunk first (width the
longest piece); _running_products scans it into every piece's running
products (width the longest piece in whole SCAN_BLOCK blocks), which
step a chunk's trajectory on from psi0 or the previous chunk's last
state, and give a half's trajectory both halves, the one before the
center through their inverse transposes. The scan is one block scan: the
prefixes inside every block of every row at once, then the block totals
of every row at once through the same scan one level up, until a level
has one block a row. _scan reads the states and norms of the whole pack
out of them in one pass, a row a piece, and each trajectory keeps its
sampled rows. An exact identity after a row's last step changes no bits,
and each row keeps the product order it gets alone, so no trajectory row
or operator depends on its pack; propagate and evolve_operator are one
entry each.

Grids come in batches ahead of the packs (_times): consecutive graded
schedules that share a window, pulse centers and bandwidths, every
schedule of a phase sweep and every pair gate of a fidelity sweep, take
one pass for up to GRID_BATCH_SAMPLES = 4*PACK_STEPS rate samples in
all, about 40 pulses of a phase sweep or 15 gates. The pass takes the
envelope powers once, each schedule's scalar rate terms, one trapezoid
cumsum a frame over a row a schedule, and one np.interp a schedule
(_graded_grids); each grid has
the bits it gets alone, and the warnings and errors of each schedule
come when its grid does, as one schedule at a time.

The pack's arrays set the peak memory. The working arrays of the step
build and of the scan or fold after it come from one workspace a sweep
(_Workspace), freed when the sweep ends: 48 vectors of the sweep's
largest pack, 1.6 MB at 2,048 steps, and a workspace of its own for each
upper level of the scan, a sixteenth of the level below. What a pack
hands on (its step stack, operators and trajectory rows) is a fresh
array, and each pack's read-out states are freed before the next pack is
built. A grid batch holds its cumulative rates, at most
GRID_BATCH_SAMPLES samples or one schedule's, and each grid is built as
its schedule is reached.

Ledger, one entry a mechanism past one grid at a time: its code, its
code lines, and its gain end to end (a benchmark workload's cfg/s,
BENCH_<n>.json) or in-process (n alternating rounds of a README command
against a monkeypatched variant, the kept code faster in k/n; 2-core
Xeon, Python 3.11, numpy 2.4). Reach counts: the benchmark's rounds, or
the README sweep's where named.
- Mirrored halves (_even_center, _inverse_transpose, the half in
  _graded_grids, _trajectory_packs and _scan; about 35 lines): 1.68x on
  the README phase sweep in-process (ROADMAP.md, code budget); none on
  gates, which have no even schedules.
- Packs (_packs, _packed, _stack, _folds, the rows of _running_products;
  about 40): 1.57x cfg/s on gate-sweep (BENCH_22.json).
- Workspace (_Workspace and every ws; about 35): 1.13x cfg/s on
  phase-scan (BENCH_26.json).
- Grid batches (the runs of _times and _graded_grids, the rows of _rate;
  about 25): in-process 1.06x on the README phase sweep (19/21, 21/21)
  and 1.075x to 1.10x on the README gate sweep (19/21, 20/21).
- Alpha batches (the runs of phases.dynamic_phase_numeric; about 15):
  1.07x on the README phase sweep in-process, 14/15 and 15/15; 36 of
  phase-scan's 58 passes hold more than one trajectory.
- Pack read-out (_scan's one pass a pack; about 15): 1.02x to 1.05x on
  the README phase sweep in-process, 8/15 to 15/15; 36 of phase-scan's
  58 scans hold more than one piece.
- Sequential scan past SCAN_DOUBLING_BLOCKS (pieces past 2,048 steps; 4):
  1.10x in-process on forward chunks (simulate --delta 1000, numeric
  phases at r = 1e-3), 15/15. No benchmark workload reaches it.
- Chunking (_chunks; about 10): 1.42x to 1.78x in-process, and a third
  to a ninth of the traced peak memory, on forward grids of 26,000 and
  77,000 steps (simulate --delta 1000 and -3000, decay on), 15/15. No
  benchmark workload reaches it.
- _expm's full levels (the levels up to the smallest scaling power
  square every slice; 4): against squaring a compressed copy at every
  level, output bits unchanged, 1.05x to 1.06x on the README phase sweep
  in-process (20/21, 19/21), where 14 of its 18 step builds square every
  slice at least once; neutral on the README gate sweep (15/21, 10/21),
  where 3 of 25 do. The common case: 43 of phase-scan's 58 step builds
  and 12 of gate-sweep's 104.
- Scan levels (the block totals' recursion in _running_products and
  _Workspace.up; 7): one path for the block totals of every row, where a
  per-row loop scanned up to SCAN_BLOCK totals with @ in sequence and more
  by the block scan; neutral against that in-process (README phase sweep
  1.00x to 1.03x, 12/21 and 9/15). Every scan of the README phase sweep
  reaches a second level, 11 of its 18 a third.
- _expm's dense partial levels (a level past the smallest scaling power
  that touches at least half the slices squares the whole stack and
  copies its slices back; 4): against a compressed copy at every such
  level, output bits unchanged, 1.09x on the README gate sweep in-process
  (48/51) and 1.01x on the README phase sweep (34/51). Every step build
  of the README gate sweep reaches one (40 dense levels against 59
  sparse), 16 of the README phase sweep's 19.
- Per-pack parameters (the parameter table and the pulse-index pass of
  _step_matrices; about 30): against a loop over the pack's grids that
  takes each frame run's coupling alone, output bits unchanged, the step
  builds of the README sweeps alone 1.05x (kept faster in 515 of 720
  gate-pack builds and 502 of 720 phase-pack builds), and 1.06x on the
  README gate sweep in-process (30/51), 1.01x on the phase sweep (30/51).
- Grid-batch bound (GRID_BATCH_SAMPLES = 4*PACK_STEPS against
  PACK_STEPS; 1): the README gate sweep's 39 grids in 1.7 ms against
  2.8 ms, the same bits, and 1.04x on the README gate sweep in-process
  (45/51), whose 39 grids take 3 passes instead of 13; neutral on the
  phase sweep (0.99x, 21/51), 2 passes instead of 7. Peak RSS of 15 runs
  of both gate sweeps: 33.4 MB either way.

Step matrices are built vectorized over a pack, in a component-major
(3, 3, n) layout so each entry is one contiguous vector, and exponentiated
by batched scaling and squaring of a Taylor polynomial. Grids depend only
on the inputs, so runs are bit-reproducible.
"""

from __future__ import annotations

import functools
import itertools
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
# most steps in one piece of a grid, and block length of the running products
# (a power of 2)
CHUNK_STEPS = 8192
SCAN_BLOCK = 16
# the running products double in-block prefixes up to this many blocks, where
# fewer, larger products beat the per-call overhead of sequential ones
# (doubling against sequential on a 2-core Xeon: 0.23 against 0.42 ms at
# 413 steps, even near 2,048, 2.6 against 1.6 ms at 8,192)
SCAN_DOUBLING_BLOCKS = 128
# pieces times most steps in one pack of trajectory or operator pieces (see
# _packs); the peak memory grows with it (module docstring). A pack of more
# than one has pieces of at most PACK_STEPS/2 steps, so its rows scan at most
# 64 blocks each (two forward pieces of 1,024 steps; a mirrored half counts
# as its whole grid, so at most 32) and double their prefixes at every level,
# as each would alone
PACK_STEPS = 2048
# most rate samples of one grid batch (see _graded_grids): the README gate
# sweep's 39 integrated grids take 1.7 ms at 4*PACK_STEPS against 2.8 ms
# at PACK_STEPS, with the same bits; 32,768 took 1.4 ms but holds more
# while the packs build
GRID_BATCH_SAMPLES = 4 * PACK_STEPS


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


def _rate(batch, k: int, t: np.ndarray) -> np.ndarray:
    """Local rate r(t) of the Hamiltonian of each (schedule, system) pair
    of batch, one row each, in the frame of its pulse k: the schedules
    share their pulses' centers and bandwidths (see _times), so each
    envelope power is taken once for the batch.

    Each term counts at the rate at which a step of RESOLUTION_TARGET/r
    leaves the same leading Magnus-6 error. With S_j = max(Omega_j, eta_j)
    and delta = Delta_k, pulse j counts at the largest of
    S_j*(1 + (|delta|/S_j)**3)**(1/7) (its coupling's own rates and the
    frame diagonal's commutators with it, which err as
    S_j**4*|delta|**3*dt**7), S_j**(1/7)*|Delta_j - delta|**(6/7) (its
    carrier in this frame, which the Gauss nodes integrate with an error
    of S_j*dt*(f*dt)**6) and |delta|*RESOLUTION_TARGET/MAX_FRAME_PHASE
    (the frame cap), times its height h_j relative to its own peak to the
    TAIL_POWER: each of these errs through the coupling. The floor
    max(omega_B, Gamma, |delta|*RESOLUTION_TARGET/MAGNUS_RADIUS) covers
    the constant terms' commutators with the couplings and keeps every
    step inside the Magnus radius.
    """
    terms = []
    for sched, s in batch:
        delta = sched.pulses[k].detuning
        frame = abs(delta) * RESOLUTION_TARGET
        row = [max(s.omega_B, s.decay_rate, frame / MAGNUS_RADIUS)]
        for p in sched.pulses:
            core = max(p.rabi_peak, p.bandwidth)
            row.append(max(_commutator_rate(core, abs(delta)),
                           core ** TAIL_POWER * abs(p.detuning - delta) ** (1.0 - TAIL_POWER),
                           frame / MAX_FRAME_PHASE))
        terms.append(row)
    terms = np.array(terms)
    r = np.repeat(terms[:, :1], t.shape[0], axis=1)
    for j, p in enumerate(batch[0][0].pulses):
        np.maximum(r, terms[:, j + 1, None] * sech(p.bandwidth * (t - p.center)) ** TAIL_POWER,
                   out=r)
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


def _check_steps(n: float, what: str = "steps") -> None:
    """Refuse a count past MAX_STEPS, inf and nan included, before int()
    could meet it."""
    if not n <= MAX_STEPS:
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


def _graded_grids(run) -> Iterator[np.ndarray]:
    """Grid of each (schedule, system) pair of run, in order, whose steps
    are RESOLUTION_TARGET/r(t) long; the schedules share a window, pulse
    centers and bandwidths (see _times).

    The cumulative integral of each schedule's local rate is taken by the
    trapezoid rule on an auxiliary grid, RATE_SAMPLING/eta apart in each
    frame (r changes by at most 2 % there, and the frame edges, where it
    jumps, are auxiliary points); the step times invert it. For an even
    schedule (see _even_center) this builds the half [c, t_end] and
    mirrors it about c, so both halves have the same steps.

    The schedules go in batches of at most GRID_BATCH_SAMPLES rate samples
    in all, or of one, so the memory does not grow with the run. A batch
    shares the auxiliary grid and the envelope powers (see _rate) and takes
    one cumsum a frame, a row a schedule, so each grid has the bits it gets
    in a batch of one. The rate samples are checked when the first grid is
    asked for, each grid's steps just before it is built.
    """
    sched = run[0][0]
    center = _even_center(sched)
    halves = 1 if center is None else 2
    if center is None:
        spans = [(k, a, b) for k, (_, a, b) in enumerate(_frame_spans(sched))]
    else:
        spans = [(0, center, sched.window[1])]
    per_ps = max(p.bandwidth for p in sched.pulses) / RATE_SAMPLING
    spans = [(k, a, b, np.ceil((b - a) * per_ps)) for k, a, b in spans]
    samples = sum(m for *_, m in spans)
    _check_steps(samples, "rate samples")
    size = max(int(GRID_BATCH_SAMPLES // samples), 1)
    for first in range(0, len(run), size):
        batch = run[first:first + size]
        aux, cum, total = [], [], 0.0
        for k, a, b, m in spans:
            t = np.linspace(a, b, int(m) + 1)
            r = _rate(batch, k, t)
            c = np.cumsum(0.5 * (r[:, 1:] + r[:, :-1]) * np.diff(t), axis=1)
            c = total + np.concatenate([np.zeros((len(batch), 1)), c], axis=1)
            aux.append(t)
            cum.append(c)
            total = c[:, -1:]
        aux, cum = np.concatenate(aux), np.concatenate(cum, axis=1)
        for (sched, _), c in zip(batch, cum):
            n = max(np.ceil(c[-1] / RESOLUTION_TARGET), 16 // halves)
            _check_steps(halves * n)
            times = np.interp(np.linspace(0.0, c[-1], int(n) + 1), c, aux)
            if center is not None:
                times = np.concatenate([2.0 * center - times[:0:-1], times])
            # where every envelope underflows and the floor is 0, H = 0 and
            # the cumulative rate is flat; the grid still has to span the window
            times[[0, -1]] = sched.window
            yield times


def _uniform_grid(sched: PulseSchedule, s: SystemParams, opts: IntegratorOpts) -> np.ndarray:
    """Uniform grid: steps of an explicit opts.dt, which must pass the
    resolution guard at the peak rate, or, for a schedule without pulses,
    the constant rate max(omega_B, Gamma)."""
    if opts.dt is None:
        # at least 16 steps: with omega_B = Gamma = 0, H = 0 and any grid is exact
        rate = max(s.omega_B, s.decay_rate)
        n = max(np.ceil(sched.duration * rate / RESOLUTION_TARGET), 16)
    else:
        fmax = _frequency_scale(sched, s)
        if opts.dt * fmax >= RESOLUTION_GUARD:
            raise StepTooLarge(
                "dt*fmax = %.3g exceeds the resolution guard %.2g"
                % (opts.dt * fmax, RESOLUTION_GUARD))
        n = max(np.ceil(sched.duration / opts.dt), 2)
    _check_steps(n)
    return np.linspace(*sched.window, int(n) + 1)


def _times(pairs, opts: IntegratorOpts) -> Iterator[np.ndarray]:
    """Step grid of each (schedule, system) pair, in order: uniform for an
    explicit opts.dt or a schedule without pulses (see _uniform_grid),
    otherwise graded, a run of consecutive schedules that share a window,
    pulse centers and bandwidths at a time (see _graded_grids): every
    schedule of a phase sweep, and every pair gate of a fidelity sweep.
    Warns at the caller of propagate, propagate_many, evolve_operators or
    evolve_operator if precession is fast, each schedule just before its
    grid is built, so warnings and errors come in the order they would one
    schedule at a time."""
    def shared(pair):
        sched = pair[0]
        if opts.dt is None and sched.pulses:
            # a list, not a tuple of a generator, which CPython shrinks from
            # a guessed length (see phases.dynamic_phase_numeric)
            return sched.window, [(p.center, p.bandwidth) for p in sched.pulses]
        return None

    for key, run in itertools.groupby(pairs, shared):
        run = list(run)
        grids = None if key is None else _graded_grids(run)
        for sched, s in run:
            if sched.pulses:
                # the warning names the nearest frame outside this module
                level, frame = 2, sys._getframe()
                while frame.f_globals.get("__name__") == __name__:
                    level, frame = level + 1, frame.f_back
                warn_if_fast_precession(s, min(p.bandwidth for p in sched.pulses), level)
            yield _uniform_grid(sched, s, opts) if grids is None else next(grids)


def _mul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None,
         tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched 3x3 products a @ b in the (3, 3, ...) layout, row by row
    with each entry a contiguous vector, into out if given (a fresh array
    otherwise); tmp, of the shape of a row, holds the terms of each row."""
    if out is None:
        out = np.empty(a.shape, dtype=complex)
    for i in range(3):
        row = np.multiply(a[i, 0], b[0], out=out[i])
        row += np.multiply(a[i, 1], b[1], out=tmp)
        row += np.multiply(a[i, 2], b[2], out=tmp)
    return out


class _Workspace:
    """Working arrays of the packs of one _packed call (one sweep), so
    that every pack reuses the same memory: fresh arrays a pack are handed
    back to the system by the allocator and page-faulted in again by the
    next pack.

    Named flat buffers are handed out as contiguous prefixes (a view into
    a wider stack would slow _mul down by about 30 %). A buffer too small
    for a request is replaced by one of twice the request, as the packs
    of a sweep grow; pages past the largest pack are never touched.

    "m0" to "m4" hold about a (3, 3, steps) stack of the pack each and
    "row" a (3, steps) row. Each function names the ones it writes, and a
    name is reused once what it held is dead: the Magnus-6 terms
    (_magnus6), then the Taylor powers and squarings (_expm), then the
    scan's or fold's stack and products. Nothing a pack returns points
    into them: the step stack, operators and trajectory rows are fresh
    arrays."""

    def __init__(self):
        self._flat = {}

    @functools.cached_property
    def up(self) -> "_Workspace":
        """Workspace of the block totals' scan one level up (see
        _running_products)."""
        return _Workspace()

    def __call__(self, name: str, shape, dtype=complex) -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        flat = self._flat.get(name)
        if flat is None or flat.shape[0] < size:
            flat = self._flat[name] = np.empty(2 * size, dtype=np.uint8)
        return flat[:size].view(dtype).reshape(shape)


def _magnus6(u: np.ndarray, h, w, d: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Omega_6 per step from the frame Hamiltonian at the three Gauss nodes.

    H = [[0, w, 0], [w, 0, u], [0, u*, d]] with u (3, n) at the nodes,
    w = omega_B and d = Delta_k - i*Gamma per step (w may be a scalar);
    A = -i*H. With alpha_1 = h*A_2, alpha_2 =
    (sqrt(15)/3)*h*(A_3 - A_1), alpha_3 = (10/3)*h*(A_3 - 2*A_2 + A_1),
    C_1 = [alpha_1, alpha_2] and C_2 = -[alpha_1, 2*alpha_3 + C_1]/60,
    Omega_6 = alpha_1 + alpha_3/12 + [-20*alpha_1 - alpha_3 + C_1, alpha_2 + C_2]/240
    (Blanes, Casas, Oteo & Ros 2009, sec. 4). alpha_2 and alpha_3 hold only
    the (z, trion) entries, so C_1 and C_2 are written out entrywise.

    Every array is written in ws: W and Z in "m0" and "m1", the vectors
    Omega_6 needs at the end in "m4", the others in "m2" and "m3" until the
    two commutator products overwrite them, so Omega_6 is returned in "m2".
    """
    n = u.shape[1]
    t = ws("row", (3, n))[0]
    a, b, c, e, p3, q3 = ws("m4", (6, n))
    du, ddu, p2, q2, c02, c11, c12, c20, c21 = ws("m2", (9, n))
    y12, y21 = ws("m3", (2, n))

    def scaled(k, x, out):
        # (k*h)*x, the k*h taken in out
        return np.multiply(np.multiply(k, h, out=out), x, out=out)

    def diff(x1, y1, x2, y2, out):
        # x1*y1 - x2*y2
        np.multiply(x1, y1, out=out)
        return np.subtract(out, np.multiply(x2, y2, out=t), out=out)

    # alpha_1's entries: (zbar, z) = (z, zbar), (z, trion), (trion, z), (trion, trion)
    scaled(-1j, w, a)
    scaled(-1j, u[1], b)
    scaled(-1j, np.conj(u[1], out=t), c)
    scaled(-1j, d, e)
    np.subtract(u[2], u[0], out=du)
    np.subtract(du, np.multiply(2.0, np.subtract(u[1], u[0], out=ddu), out=ddu), out=ddu)
    # alpha_2's (z, trion), (trion, z), then alpha_3's
    scaled(-1j * np.sqrt(15.0) / 3.0, du, p2)
    scaled(-1j * np.sqrt(15.0) / 3.0, np.conj(du, out=t), q2)
    scaled(-10j / 3.0, ddu, p3)
    scaled(-10j / 3.0, np.conj(ddu, out=t), q3)
    # C_1; its (trion, trion) entry is -c11
    np.multiply(a, p2, out=c02)
    diff(b, q2, c, p2, c11)
    np.multiply(np.negative(e, out=c12), p2, out=c12)
    np.multiply(np.negative(a, out=c20), q2, out=c20)
    np.multiply(e, q2, out=c21)
    # Y = 2*alpha_3 + C_1 differs from C_1 only in y12 and y21
    np.add(c12, np.multiply(2.0, p3, out=y12), out=y12)
    np.add(c21, np.multiply(2.0, q3, out=y21), out=y21)
    # W = alpha_2 + C_2 = alpha_2 - [alpha_1, Y]/60
    wm = ws("m0", (3, 3, n))
    wm[0, 0] = 0.0
    diff(a, c11, c, c02, wm[0, 1])
    diff(a, y12, e, c02, wm[0, 2])
    diff(b, c20, a, c11, wm[1, 0])
    diff(b, y21, c, y12, wm[1, 1])
    w12 = np.multiply(a, c02, out=wm[1, 2])
    w12 -= np.multiply(np.multiply(2.0, b, out=t), c11, out=t)
    w12 -= np.multiply(e, y12, out=t)
    diff(e, c20, a, y21, wm[2, 0])
    w21 = np.multiply(np.multiply(2.0, c, out=wm[2, 1]), c11, out=wm[2, 1])
    w21 += np.multiply(e, y21, out=t)
    w21 -= np.multiply(a, c20, out=t)
    diff(c, y12, b, y21, wm[2, 2])
    wm *= -1.0 / 60.0
    wm[1, 2] += p2
    wm[2, 1] += q2
    # Z = -20*alpha_1 - alpha_3 + C_1
    z = ws("m1", (3, 3, n))
    z[0, 0] = 0.0
    z[1, 0] = np.multiply(-20.0, a, out=z[0, 1])
    z[0, 2] = c02
    z[1, 1] = c11
    z12 = np.subtract(c12, np.multiply(20.0, b, out=t), out=z[1, 2])
    z12 -= p3
    z[2, 0] = c20
    z21 = np.subtract(c21, np.multiply(20.0, c, out=t), out=z[2, 1])
    z21 -= q3
    np.subtract(np.multiply(-20.0, e, out=z[2, 2]), c11, out=z[2, 2])
    rows = ws("row", (3, n))
    omega = _mul(z, wm, ws("m2", (3, 3, n)), rows)
    omega -= _mul(wm, z, ws("m3", (3, 3, n)), rows)
    omega *= 1.0 / 240.0
    omega[0, 1] += a
    omega[1, 0] += a
    omega[1, 2] += np.add(b, np.divide(p3, 12.0, out=t), out=t)
    omega[2, 1] += np.add(c, np.divide(q3, 12.0, out=t), out=t)
    omega[2, 2] += e
    return omega


def _taylor(x: np.ndarray, ws: _Workspace, out: np.ndarray) -> np.ndarray:
    """Degree-8 Taylor polynomial of exp, Paterson-Stockmeyer: 4 products,
    written in out. x2 and x3 take "m0" and "m1" of ws, the b(k) terms
    "m2" and the partial sum "m4", so x may sit in "m3"."""
    shape = x.shape
    rows = ws("row", shape[1:])
    x2 = _mul(x, x, ws("m0", shape), rows)
    x3 = _mul(x2, x, ws("m1", shape), rows)
    c = TAYLOR_COEFS

    def b(k):
        # c[k] + c[k+1]*x + c[k+2]*x2
        bk = np.multiply(c[k + 1], x, out=ws("m2", shape))
        for i in range(3):
            bk[i] += np.multiply(c[k + 2], x2[i], out=rows)
            bk[i, i] += c[k]
        return bk

    # b0 + x3 @ (b1 + x3 @ b2), accumulated in place
    e = _mul(x3, b(6), ws("m4", shape), rows)
    e += b(3)
    b0 = b(0)
    e = _mul(x3, e, out, rows)
    e += b0
    return e


def _expm(x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """exp of each (3, 3) slice by scaling and squaring: every matrix is
    scaled by 2^-k to 1-norm <= TAYLOR_THETA with its own k, all go through
    one Taylor pass, and squaring level l touches only the slices with
    k >= l. x is left unchanged. The working arrays are taken from ws, the
    scaled stack from its "m3", and x may be its "m2" (see _magnus6); the
    result is a fresh array. Levels up to the smallest k square every
    slice, alternating between the result and "m0" so that the last of
    them lands in the result. A later level that touches at least half
    the slices squares the whole stack into "m2" and copies its slices
    back; a sparser one squares a compressed copy of its slices in "m1"
    and "m2" and scatters it back. Each squared slice has the same bits
    either way."""
    shape = x.shape
    norm = np.abs(x, out=ws("m0", shape, float)).sum(
        axis=0, out=ws("m1", shape[1:], float)).max(axis=0)
    scale = np.maximum(np.frexp(norm / TAYLOR_THETA)[1], 0)
    levels = int(scale.max(initial=0))
    full = int(scale.min(initial=levels))
    x = np.multiply(x, np.ldexp(1.0, -scale), out=ws("m3", shape))
    result = np.empty(shape, dtype=complex)
    buffers = (result, ws("m0", shape))
    e = _taylor(x, ws, buffers[full % 2])
    rows = ws("row", shape[1:])
    for level in range(1, levels + 1):
        if level <= full:
            e = _mul(e, e, buffers[(full - level) % 2], rows)
        else:
            sel = scale >= level
            count = int(np.count_nonzero(sel))
            if 2 * count >= sel.shape[0]:
                np.copyto(e, _mul(e, e, ws("m2", shape), rows), where=sel)
            else:
                sq = np.compress(sel, e, axis=-1, out=ws("m1", shape[:2] + (count,)))
                e[..., sel] = _mul(sq, sq, ws("m2", sq.shape), ws("row", sq.shape[1:]))
    return e


def _step_matrices(grids: Sequence[Tuple[np.ndarray, PulseSchedule]],
                   systems: Sequence[SystemParams], ws: _Workspace) -> np.ndarray:
    """Lab-frame Magnus-6 step matrices of grids laid end to end, as
    (3, 3, total steps). grids holds (times, schedule) pairs and systems
    one SystemParams per grid; in each grid's segment, slice k maps
    psi(times[k]) to psi(times[k + 1]) under its schedule and system.

    omega_B, Gamma and pulse j's parameters are per-step arrays over the
    pack, pulse j of each grid repeated over its grid's steps, so one pass
    a pulse index builds the (z, trion) entry of every frame Hamiltonian,
    V(t)*exp(i*Delta_k*(t - c_k)) in the frame k of the nearest pulse
    (switching at midpoints between centers): pulse k's own term is its
    real envelope, and every other pulse j turns at Delta_k - Delta_j. A
    grid without pulse j takes no term from it, and one without pulses
    stays in the lab frame. Every step is built with the arithmetic it
    gets alone. The working arrays of _magnus6 and _expm come from ws
    (see _Workspace); the returned stack is a fresh array."""
    t = np.concatenate([times[:-1] for times, _ in grids])
    t_next = np.concatenate([times[1:] for times, _ in grids])
    dt = t_next - t
    nodes = t + GAUSS_NODES[:, None] * dt
    mid = t + 0.5 * dt
    steps = [times.shape[0] - 1 for times, _ in grids]
    # one slot at least: a grid without pulses reads its frame detuning
    # and center, both 0, from an empty slot
    most = max(1, *(len(sched.pulses) for _, sched in grids))
    # a row per grid: omega_B, Gamma, then per pulse slot its rabi_peak,
    # detuning, bandwidth and center (zeros where the grid has no such
    # pulse; a pulse's rabi_peak is positive) and the midpoint to the next
    # center (inf past the last)
    table = []
    for (_, sched), system in zip(grids, systems):
        row = [system.omega_B, system.decay_rate]
        pulses = sched.pulses
        for j in range(most):
            p = pulses[j] if j < len(pulses) else None
            row += [p.rabi_peak, p.detuning, p.bandwidth, p.center] if p else [0.0] * 4
            row.append(0.5 * (p.center + pulses[j + 1].center) if j + 1 < len(pulses) else np.inf)
        table.append(row)
    table = np.array(table)
    # a column the grids share bit for bit stays one value, which keeps
    # the arithmetic of a scalar; the others are repeated over the steps
    bits = table.view(np.int64)
    shared = (bits == bits[0]).all(axis=0)
    repeated = iter(np.repeat(table[:, ~shared].T, steps, axis=1))
    omega_b, decay, *slots = (table[0, i] if shared[i] else next(repeated)
                              for i in range(table.shape[1]))
    rabi, detuning, bandwidth, center, midpoint = (slots[i::5] for i in range(5))
    # frame k: the count of midpoints before the step's middle
    frame = sum((m < mid for m in midpoint[:-1]), np.zeros(mid.shape, dtype=int))
    here = [frame == j for j in range(most)]
    delta, c_frame = detuning[0], center[0]
    for j in range(1, most):
        delta = np.where(here[j], detuning[j], delta)
        c_frame = np.where(here[j], center[j], c_frame)
    u = np.zeros(nodes.shape, dtype=complex)
    turn = np.empty(nodes.shape, dtype=complex)
    for j in range(most):
        present = rabi[j] > 0.0
        own, other = here[j] & present, ~here[j] & present
        env = rabi[j] * sech(bandwidth[j] * (nodes - center[j]))
        np.add(u, env, out=u, where=own)
        if other.any():
            phase = delta * (nodes - c_frame) - detuning[j] * (nodes - center[j])
            np.exp(np.multiply(1j, phase, out=turn, where=other), out=turn, where=other)
            np.add(u, np.multiply(env, turn, out=turn, where=other), out=u, where=other)
    del nodes, mid, turn
    m = _expm(_magnus6(u, dt, omega_b, delta - 1j * decay, ws), ws)
    # to the lab frame, D(t + dt)^dagger exp(Omega_6) D(t), where D(t)
    # multiplies the trion amplitude by exp(-i*Delta_k*(t - c_k))
    m[:, 2] *= np.exp(-1j * delta * (t - c_frame))
    m[2] *= np.exp(1j * delta * (t_next - c_frame))
    return m


def _chunks(times: np.ndarray):
    """Grid pieces of at most CHUNK_STEPS steps, sharing their end points."""
    n = times.shape[0] - 1
    for a in range(0, n, CHUNK_STEPS):
        yield a, times[a:min(a + CHUNK_STEPS, n) + 1]


def _stack(m: np.ndarray, lengths: Sequence[int], width: int, ws: _Workspace) -> np.ndarray:
    """Segments of m, of the given lengths laid end to end, as the rows of a
    (3, 3, segments, width) stack in "m2" of ws, each padded with
    identities after its last step: an exact identity there changes no bits
    of the row's products."""
    stack = ws("m2", (3, 3, len(lengths), width))
    stack[...] = 0.0
    for i in range(3):
        stack[i, i] = 1.0
    a = 0
    for k, n in enumerate(lengths):
        stack[:, :, k, :n] = m[..., a:a + n]
        a += n
    return stack


def _running_products(m: np.ndarray, lengths: Sequence[int], ws: _Workspace) -> np.ndarray:
    """m[..., a + k] @ ... @ m[..., a] for every step k of every segment:
    m holds segments of the given lengths end to end, and the products
    restart at each segment's first step a, returned as a (3, 3, segments,
    width) stack whose row i starts with segment i's products.

    One block scan: the segments become the rows of a stack of whole
    SCAN_BLOCK blocks (see _stack), and the prefixes inside every block of
    every row are taken at once. While the stack has at most
    SCAN_DOUBLING_BLOCKS blocks a row the prefixes double: after the pass
    with offset d, slot j holds the product of steps j - 2d + 1..j, so
    log2(SCAN_BLOCK) batched products replace SCAN_BLOCK - 1 sequential
    ones at about 3x the arithmetic. Past that the products run in
    sequence. The totals of every block but the last, of all rows at
    once, then get their running products from this same scan one level
    up, in the workspace ws.up (a padding block's total is an identity);
    the levels end at one block a row. One batched product applies them
    to every block after each row's first. A slot's product depends only
    on the steps up to it, so wherever both double, the first L products
    of a segment are those of its first L steps and each row has the bits
    its segment gets as a pack of one, as every row of a pack of more than
    one does (see PACK_STEPS). m may be overwritten. The stack is "m2" of
    ws, and the batched products are written in its "m0" before they are
    copied into it."""
    def product(a, b):
        return _mul(a, b, ws("m0", a.shape), ws("row", a.shape[1:]))

    counts = [-(-k // SCAN_BLOCK) for k in lengths]
    blocks = _stack(m, lengths, max(counts) * SCAN_BLOCK, ws)
    blocks = blocks.reshape(3, 3, len(lengths), -1, SCAN_BLOCK)
    if blocks.shape[3] <= SCAN_DOUBLING_BLOCKS:
        d = 1
        while d < SCAN_BLOCK:
            blocks[..., d:] = product(blocks[..., d:], blocks[..., :-d])
            d *= 2
    else:
        for j in range(1, SCAN_BLOCK):
            blocks[..., j] = _mul(blocks[..., j], blocks[..., j - 1])
    n = blocks.shape[3] - 1
    if n:
        upto = _running_products(blocks[..., :-1, -1].reshape(3, 3, -1), [n] * len(lengths), ws.up)
        blocks[:, :, :, 1:] = product(blocks[:, :, :, 1:], upto[..., :n, None])
    return blocks.reshape(3, 3, len(lengths), -1)


def _inverse_transpose(a: np.ndarray, cof: np.ndarray) -> np.ndarray:
    """(a^-1)^T of each slice of a (3, 3, ...) stack, written in cof: its
    cofactor matrix over its determinant."""
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
    sampled or not. psi is the state the next forward chunk starts from."""

    def __init__(self, psi0: np.ndarray, times: np.ndarray, stride: int):
        n = times.shape[0] - 1
        idx = np.arange(0, n + 1, stride)
        if idx[-1] != n:
            idx = np.append(idx, n)
        self.psi0, self.psi, self.times, self.idx = psi0, psi0, times, idx
        self.states = np.empty((idx.shape[0], 3), dtype=complex)
        self.norms = np.empty(idx.shape[0])
        self.peak = 0.0

    def store(self, states: np.ndarray, norms: np.ndarray, start: int) -> None:
        """Keep the sampled ones of states, grid rows start.. in order, and
        their norms."""
        self.peak = np.maximum(self.peak, norms.max())
        lo, hi = np.searchsorted(self.idx, [start, start + states.shape[0]])
        sel = self.idx[lo:hi] - start
        self.states[lo:hi] = states[sel]
        self.norms[lo:hi] = norms[sel]

    def trajectory(self) -> Trajectory:
        """The trajectory, once every row after the first is stored; the
        first is psi0 itself."""
        self.store(self.psi0[None], _norms(self.psi0[None]), 0)
        if not self.peak <= 1.0 + 1e-6:
            raise NormBlowup("norm reached %.9f" % self.peak)
        return Trajectory(self.times[self.idx], self.states, self.norms)


def _packs(entries):
    """Packs, as lists of items, of consecutive (steps, item) entries: an
    entry joins the pack while the pack's count times its most steps stays
    within PACK_STEPS, so an entry of more steps is a pack of one."""
    pack, longest = [], 0
    for n, item in entries:
        if pack and (len(pack) + 1) * max(longest, n) > PACK_STEPS:
            yield pack
            pack, longest = [], 0
        pack.append(item)
        longest = max(longest, n)
    if pack:
        yield pack


def _packed(pieces, reduce):
    """The list reduce(steps, lengths, targets, ws) returns for each pack of
    pieces, (steps it packs as, (times, schedule, system, target)) each
    (see _packs), in order: one _step_matrices pass builds the steps of the
    pack's grid pieces laid end to end, of the given lengths, and reduce
    scans or folds them. reduce returns a list, so its arrays are freed
    before the next pack is built. Every pack's step build works in one
    workspace (see _Workspace), freed with the generator."""
    ws = _Workspace()
    for pack in _packs(pieces):
        times, scheds, systems, targets = zip(*pack)
        yield reduce(_step_matrices(list(zip(times, scheds)), systems, ws),
                     [t.shape[0] - 1 for t in times], targets, ws)


def _scan(m, lengths, targets, ws):
    """The _Rows whose last piece is in this pack, from the pack's steps m
    (see _packed) and its pieces' (rows, a, mirrored) targets, a the grid
    row a piece starts at.

    One _running_products call takes the pack's running products, a row
    a piece. A forward piece's row steps on rows.psi, psi0 or the previous
    chunk's last state (a chunk of CHUNK_STEPS > PACK_STEPS steps is a
    pack of one, so the chunk before it is in an earlier pack). A mirrored
    half's row holds V(s_k) for every k, its last V(T): applied to psi(c)
    = V(T)^T psi0 they give the half after the center c, and their
    inverse transposes, in reverse, the half before it. With decay off
    (V^-1)^T = conj(V), and the cofactor inverse is perfectly conditioned;
    conj(V) itself would carry the steps' unitarity defect, rounding that
    grows with the squarings of _expm, along the products.

    The states and norms of the whole pack are read out in one pass, a row
    a piece with its start state in column c: the half before the center
    (c columns, reversed into grid order) when the pack holds a half, then
    the start state, then one state per step. Each piece stores its slice
    of its row, so every state has the bits it gets alone.
    """
    v = _running_products(m, lengths, ws)
    del m
    halves = np.array([mirrored for *_, mirrored in targets])
    start = np.array([rows.psi0 if mirrored else rows.psi for rows, _, mirrored in targets])
    c = v.shape[-1] if halves.any() else 0
    if c:
        last = v[:, :, np.arange(len(lengths)), np.subtract(lengths, 1)]
        start = np.where(halves[:, None], np.einsum("jik,kj->ki", last, start), start)
    # einsum writes a fresh array in about a third of the time it takes to
    # write into a view of states
    after = np.einsum("ijkl,kj->kli", v, start)
    before = (np.einsum("ijkl,kj->kli", _inverse_transpose(v, ws("m1", v.shape)), start)
              if c else None)
    del v
    states = np.empty((len(lengths), c + after.shape[1] + 1, 3), dtype=complex)
    states[:, c] = start
    states[:, c + 1:] = after
    if c:
        states[:, c - 1::-1] = before
    del after, before
    norms = _norms(states.reshape(-1, 3)).reshape(states.shape[:2])
    done = []
    for k, (n, (rows, a, mirrored)) in enumerate(zip(lengths, targets)):
        if mirrored:
            rows.store(states[k, c - n:c + n + 1], norms[k, c - n:c + n + 1], 0)
        else:
            rows.store(states[k, c + 1:c + n + 1], norms[k, c + 1:c + n + 1], a + 1)
            rows.psi = states[k, c + n].copy()
        if a + n == rows.times.shape[0] - 1:
            done.append(rows)
    return done


def _folds(m, lengths, targets, ws):
    """(product, target) of each piece of a pack, from the pack's steps m
    (see _packed): one _fold over their identity-padded stack in ws (see
    _stack), with m freed before it."""
    stack = _stack(m, lengths, max(lengths), ws)
    del m
    return list(zip(np.moveaxis(_fold(stack), -1, 0).copy(), targets))


def propagate_many(psi0s: Sequence[StateVector], scheds: Sequence[PulseSchedule],
                   s: SystemParams, opts: Optional[IntegratorOpts] = None) -> Iterator[Trajectory]:
    """Trajectories for each (psi0, schedule) pair, in order, each the one
    propagate returns for its pair.

    Every grid becomes pieces, the half after the center of a grid that
    propagate mirrors or else chunks stepped forward from psi0, packed
    by _packs; one pass each builds a pack's steps and scans them (_scan),
    and each entry gets the bits it gets alone. A trajectory is yielded
    once the pack of its last piece is done, so a caller that lets each go
    before the next holds at most one pack's.
    """
    for trajs in _trajectory_packs(psi0s, scheds, s, opts):
        yield from trajs


def _trajectory_packs(psi0s, scheds, s, opts) -> Iterator[list]:
    """propagate_many's trajectories a list at a time: those whose last
    piece is in one pack, in order, an empty list for a pack that finishes
    none. A caller that lets each list go before the next holds at most
    one pack's trajectories when the next pack is built."""
    opts = opts or IntegratorOpts()
    psi0s, scheds = list(psi0s), list(scheds)
    if len(psi0s) != len(scheds):
        raise ValueError("need one start state per schedule")
    if any(abs(psi0.norm_sq - 1.0) > 1e-9 for psi0 in psi0s):
        raise ValueError("psi0 must be normalized")
    mirror = opts.dt is None and s.decay_rate == 0

    def pieces():
        grids = _times(((sched, s) for sched in scheds), opts)
        for psi0, sched, times in zip(psi0s, scheds, grids):
            rows = _Rows(psi0.amplitudes, times, opts.sample_stride)
            n = rows.times.shape[0] - 1
            if mirror and _even_center(sched) is not None and n // 2 <= CHUNK_STEPS:
                yield n, (rows.times[n // 2:], sched, s, (rows, n // 2, True))
            else:
                for a, piece in _chunks(rows.times):
                    yield piece.shape[0] - 1, (piece, sched, s, (rows, a, False))

    for done in _packed(pieces(), _scan):
        yield [rows.trajectory() for rows in done]


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
    (V(s)^-1)^T psi(c) with V(s) = U(c + s, c), through cofactors. Any
    other grid steps forward from psi0, chunk by chunk. Raises
    StepTooLarge if the grid cannot resolve the fastest envelope, Rabi,
    precession, decay, frame or neighbour-tail rate within MAX_STEPS (or
    an explicit dt breaks the resolution guard), NormBlowup if the norm
    grows. One entry of propagate_many.
    """
    return next(propagate_many([psi0], [sched], s, opts))


def evolve_operators(scheds: Sequence[PulseSchedule], systems: Sequence[SystemParams],
                     opts: Optional[IntegratorOpts] = None) -> list:
    """Evolution operators for each (schedule, system) pair, in order, each
    the one evolve_operator returns for its pair.

    Every grid becomes chunks of at most CHUNK_STEPS steps, packed by
    _packs; a pack's steps take one _step_matrices pass, gates of any
    field and lifetime mixed, and one fold (_folds). Each chunk's product
    multiplies its gate's operator, earliest first.
    """
    opts = opts or IntegratorOpts()
    scheds, systems = list(scheds), list(systems)
    if len(scheds) != len(systems):
        raise ValueError("need one SystemParams per schedule")

    def pieces():
        pairs = list(zip(scheds, systems))
        for (sched, s), times in zip(pairs, _times(pairs, opts)):
            for a, piece in _chunks(times):
                yield piece.shape[0] - 1, (piece, sched, s, a + piece.shape[0] == times.shape[0])

    ops, u = [], np.eye(3, dtype=complex)
    for folds in _packed(pieces(), _folds):
        for fold, last in folds:
            u = fold @ u
            if last:
                ops.append(u)
                u = np.eye(3, dtype=complex)
    return ops


def evolve_operator(sched: PulseSchedule, s: SystemParams,
                    opts: Optional[IntegratorOpts] = None) -> np.ndarray:
    """Time-ordered evolution operator over the window, basis (zbar, z, trion).

    Columns are the propagated basis states, in the lab frame, built from
    the same Magnus-6 steps on the same grid as propagate: graded, or
    uniform if opts.dt is given. Unitary to rounding without decay, a
    contraction with decay on. One entry of evolve_operators.
    """
    return evolve_operators([sched], [s], opts)[0]


def truncate_qubit(u3: np.ndarray) -> np.ndarray:
    """Upper-left 2x2 block, basis (zbar, z), of a (3, 3) operator or of
    each in a (..., 3, 3) stack. No renormalization: the lost weight is
    physical population left in the trion level or decayed away."""
    u3 = np.asarray(u3)
    return u3[..., :2, :2].copy()
