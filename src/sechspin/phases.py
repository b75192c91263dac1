"""Decomposition of the pulse-induced phase into dynamic and geometric parts.

Two routes, kept structurally independent on purpose:

* method I ("analytic"): the closed-form integrand for the dynamic phase,
  valid in the slow-precession limit, summed by a fixed composite
  Gauss-Legendre rule (16 nodes per panel, panels 1/Omega wide, checked
  against panels twice as wide); the overall phase comes from the arctan
  formula.
* method II ("numeric"): full propagation of the three-level system on
  the graded grid, the dynamic phase as minus the time integral of the
  Hamiltonian expectation value by a two-point Hermite rule with exact
  first and second derivatives on the trajectory times, the overall phase
  read off the final state. The window is symmetric about the pulse
  center c, so the grid is mirrored about c and propagate integrates
  only [c, t_end]; the earlier half follows by time reversal,
  psi(c - s) = conj(V(s) conj(psi(c))) with V(s) = U(c + s, c) and
  psi(c) = V(t_end - c)^T psi(t_start) (see propagator). A run with an
  explicit IntegratorOpts.dt steps forward over the whole window.

The geometric part is the difference in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import SystemParams, sech, two_pi_pulse
from .propagator import (
    IntegratorOpts,
    PulseSchedule,
    Trajectory,
    propagate,
    schedule_for_pulses,
)
from .special import overall_phase
from . import model

# half-width in units of 1/Omega. The truncation is larger than sech^2(20)
# ~ 1e-17 suggests: the spin starts in |z> where the infinite pulse would
# already have moved ~e^-20 of amplitude into the trion, and numeric alpha
# feels that at first order. At B = 0 it misses 4r/(1+r^2) by 2.4e-8 at
# r = 10, 4.9e-9 at r = +-100 and 2.6e-9 at r = 1 (<= 6.8e-13 at these r
# with window 30).
DEFAULT_WINDOW = 20.0
# beyond this x, sech(x)**2 ~ 4*exp(-2x) is below half the smallest
# subnormal and rounds to exactly 0 (x ~ 373.3)
SECH2_UNDERFLOW = 0.5 * float(np.log(8.0) - np.log(np.finfo(float).smallest_subnormal))
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# the integrand is bounded by 2*(|Delta| + Omega) and its fine panel sums,
# before they are scaled by the panel width, reach about 8*(|Delta| + Omega),
# so both stay finite below this
INTEGRAND_LIMIT = float(np.finfo(float).max) / 16.0
# with Omega and every |Delta| of a call between 1/PLAIN_SQUARES and
# PLAIN_SQUARES, the prefactor's squares are normal floats with a finite sum
PLAIN_SQUARES = 1e150
# detunings per quadrature pass: at the default window one detuning takes
# ~40 KB of temporaries, so a block stays under 1 MB however long the grid
# (16 ran a 60- and a 2,000-detuning grid faster than 8, 32 or 64)
QUAD_BLOCK = 16


class QuadratureFailure(ArithmeticError):
    """The fine and coarse quadrature sums disagree beyond tolerance."""


class DecayForbidden(ValueError):
    """Phase decomposition is defined for unitary evolution only."""


@dataclass(frozen=True)
class PhaseDecomposition:
    overall: float      # phi [rad]
    dynamic: float      # alpha [rad]
    geometric: float    # gamma = phi - alpha [rad]
    method: str         # "analytic" or "numeric"
    ratio: float        # r = Omega/Delta, signed; inf at resonance


def _as_decomposition(phi, alpha, method, omega, delta) -> PhaseDecomposition:
    ratio = np.inf if delta == 0.0 else omega / delta
    return PhaseDecomposition(overall=float(phi), dynamic=float(alpha),
                              geometric=float(phi - alpha), method=method,
                              ratio=float(ratio))


def _panel_sums(omega: float, delta: np.ndarray, lim: float, n: int) -> np.ndarray:
    """Integral of the raw integrand over [-lim, lim] by GL_NODES on n
    equal panels, for a column of detunings. The panel centers are counted
    from 0, so nodes near the center, where the integrand peaks, carry no
    rounding from lim. Each row is reduced as a lone detuning would be
    (per panel @ GL_WEIGHTS, then np.sum), so its bits do not depend on
    the block it sits in."""
    h = 2.0 * lim / n
    mid = h * (np.arange(n) - 0.5 * (n - 1))
    t = (mid[:, None] + 0.5 * h * GL_NODES).ravel()
    x = omega * t
    # log(1 -+ tanh x) without cancellation: ln 2 - ln(1 + e^(+-2x))
    log_1m = np.log(2.0) - np.logaddexp(0.0, 2.0 * x)
    log_1p = np.log(2.0) - np.logaddexp(0.0, -2.0 * x)
    half = delta / (2.0 * omega)
    # arg of e^(-i*Delta*t) * (1-th)^(-i*half) * (1+th)^(i*half)
    theta = -delta * t - half * log_1m + half * log_1p
    re_part = delta * np.cos(theta) + omega * np.tanh(x) * np.sin(theta)
    values = sech(x) ** 2 * 2.0 * re_part
    return 0.5 * h * np.sum(values.reshape(len(delta), n, -1) @ GL_WEIGHTS, axis=-1)


def _prefactor_times(omega: float, delta: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Omega**2/(Delta**2 + Omega**2)*value where a square may leave the
    normal range: as written where Omega**2 is a normal float and
    Delta**2 + Omega**2 finite, else value/(1 + q**2) with q = Delta/Omega,
    or value/q/q where q**2 overflows too."""
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = np.float_power(omega, 2)
        den = np.float_power(delta, 2) + w2
        q = delta / omega
        q2 = q * q
        wide = np.where(np.isfinite(q2), value / (1.0 + q2), value / q / q)
        return np.where(np.isfinite(den) & (w2 >= np.finfo(float).tiny), w2 / den * value, wide)


def dynamic_phase_analytic(omega: float, delta, window: float = DEFAULT_WINDOW):
    """Dynamic phase of one 2*pi pulse (Omega = eta) from the closed form.

    The integrand is assembled in its raw oscillatory-factor shape, products
    of (1 -+ tanh)^(+-i*Delta/2/Omega) with the conjugate pair summed, not
    in any algebraically simplified variant; the power
    factors are evaluated through logs so the tails stay finite. It is
    integrated over [-L, L], L = min(window, SECH2_UNDERFLOW)/Omega (the
    integrand is exactly 0 beyond SECH2_UNDERFLOW/Omega, so the clip drops
    nothing), by 16-node Gauss-Legendre panels at most 1/Omega wide;
    QuadratureFailure is raised when panels twice as wide give a sum
    further away than 1e-7*max(1, |value|), or a sum that is not finite.
    A detuning that is not finite, whose carrier phase |Delta|*L at the
    ends of the span is not (|Delta| above ~9e306 at the default window
    and Omega = 1), or for which |Delta| + Omega reaches INTEGRAND_LIMIT
    (~1.1e307, where the integrand's sums would overflow), is refused with
    ValueError. Where Delta**2 + Omega**2 overflows or Omega**2 leaves the
    normal range, the prefactor Omega**2/(Delta**2 + Omega**2) is taken as
    1/(1 + q**2), q = Delta/Omega (see _prefactor_times).

    delta may be an array: every detuning is summed on the same nodes, in
    blocks of QUAD_BLOCK, and each result equals that of a scalar call.
    At Delta = 0 the limit form is the analytic zero (odd integrand).
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not window >= 10.0:
        raise ValueError("window must be >= 10 (integrand support)")
    d = np.asarray(delta, dtype=float)
    flat = d.ravel()
    bad = ~np.isfinite(flat)
    if bad.any():
        raise ValueError("detuning must be finite, got %r" % float(flat[bad][0]))
    half_span = min(window, SECH2_UNDERFLOW)
    n = int(np.ceil(half_span))             # coarse panels, at most 2/Omega wide
    lim = half_span / omega
    mag = np.abs(flat)
    top = float(mag.max(initial=0.0))
    # the carrier phase -Delta*t reaches |Delta|*lim at the ends of the span
    if not math.isfinite(top * lim):
        with np.errstate(over="ignore"):
            first = flat[~np.isfinite(mag * lim)][0]
        raise ValueError(
            "detuning %r too large: |detuning|*min(window, %.6g)/omega must be finite"
            % (float(first), SECH2_UNDERFLOW))
    if not top + omega < INTEGRAND_LIMIT:
        first = flat[~(mag + omega < INTEGRAND_LIMIT)][0]
        raise ValueError("detuning %r too large: |detuning| + omega must be below %.3g"
                         % (float(first), INTEGRAND_LIMIT))
    plain = 1.0 / PLAIN_SQUARES <= omega <= PLAIN_SQUARES and top <= PLAIN_SQUARES
    out = np.zeros(flat.shape)               # Delta = 0 stays the analytic zero
    live = np.flatnonzero(flat)
    for k in range(0, live.size, QUAD_BLOCK):
        idx = live[k:k + QUAD_BLOCK]
        value = _panel_sums(omega, flat[idx, None], lim, 2 * n)
        err = np.abs(value - _panel_sums(omega, flat[idx, None], lim, n))
        failed = ~(err <= 1e-7 * np.maximum(1.0, np.abs(value))) | ~np.isfinite(value)
        if failed.any():
            raise QuadratureFailure(
                "dynamic phase quadrature error %.2e too large" % err[failed][0])
        if plain:
            # float_power is libm's pow, as a scalar delta ** 2 is; numpy's
            # power and square differ from it in the last bit for ~0.1 % of
            # detunings
            out[idx] = omega ** 2 / (np.float_power(flat[idx], 2) + omega ** 2) * value
        else:
            out[idx] = _prefactor_times(omega, flat[idx], value)
    return float(out[0]) if d.ndim == 0 else out.reshape(d.shape)


def dynamic_phase_numeric(traj: Trajectory, sched: PulseSchedule,
                          s: SystemParams) -> float:
    """Minus the integral of E = <psi|H|psi> over the trajectory times.

    Uses the Hermitian Hamiltonian (precession + pulse coupling). For
    Hermitian H and i d(psi)/dt = H psi, E' = <psi|H'|psi> and E'' =
    <psi|H''|psi> + i<psi|[H, H']|psi> hold exactly, with H' carrying only
    V' = sum_j V_j*(-eta_j*tanh(eta_j*(t - c_j)) - i*Delta_j). So each
    interval takes the two-point Hermite rule h/2*(E_k + E_{k+1}) +
    h^2/10*(E'_k - E'_{k+1}) + h^3/120*(E''_k + E''_{k+1}), sixth order on
    any grid (graded or strided), like the Magnus-6 steps. A trajectory
    produced with decay on is rejected since the decomposition is only
    defined for unitary evolution.
    """
    if s.decay_rate > 0:
        raise DecayForbidden("phase decomposition needs decay off")
    t = traj.times
    cb, cz, ct = traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]
    v = np.zeros(t.shape, dtype=complex)
    dv = np.zeros(t.shape, dtype=complex)
    ddv = np.zeros(t.shape, dtype=complex)
    for p in sched.pulses:
        vj = model.coupling(t, [p])
        tanh = np.tanh(p.bandwidth * (t - p.center))
        g = -p.bandwidth * tanh - 1j * p.detuning      # V_j'/V_j
        v += vj
        dv += vj * g
        ddv += vj * (g * g - p.bandwidth ** 2 * (1.0 - tanh * tanh))
    zt = np.conj(cz) * ct
    e = 2.0 * s.omega_B * np.real(np.conj(cb) * cz) + 2.0 * np.real(v * zt)
    de = 2.0 * np.real(dv * zt)
    # i<psi|[H, H']|psi> = -2*Im(<H psi|H' psi>)
    dde = (2.0 * np.real(ddv * zt) - 2.0 * s.omega_B * np.imag(dv * np.conj(cb) * ct)
           - 2.0 * np.imag(dv * np.conj(v)) * (np.abs(ct) ** 2 - np.abs(cz) ** 2))
    h = np.diff(t)
    return float(-np.sum(h * (0.5 * (e[1:] + e[:-1]) + h / 10.0 * (de[:-1] - de[1:])
                              + h * h / 120.0 * (dde[:-1] + dde[1:]))))


def _numeric_raw(omega, delta, s, window, opts):
    """(arg of the z amplitude, alpha) for one pulse centered at t = 0.

    The pulse is measured in the frame of the interleaved fidelity target:
    it acts at its center, with exact free precession around it. The spin
    starts at -window/Omega in the state that free precession carries into
    |z> at the center, and the z amplitude is read after undoing free
    precession from the center to window/Omega. Free precession then adds
    nothing to <H> outside the pulse, so alpha and phi describe the pulse
    and not the window. At omega_B = 0 this is the plain |z> start and
    <z|psi(t_end)> readout.
    """
    half = window / omega
    pulse = two_pi_pulse(bandwidth=omega, detuning=delta, center=0.0)
    sched = PulseSchedule([pulse], (-half, half))
    undo = model.free_precession(s.omega_B, -half)    # back over half the window
    psi0 = model.StateVector(np.append(undo[:, 1], 0.0))
    traj = propagate(psi0, sched, s, opts)
    alpha = dynamic_phase_numeric(traj, sched, s)
    phi_raw = float(np.angle((undo @ traj.states[-1, :2])[1]))
    return phi_raw, alpha


def _nearest_branch(phi_raw: float, anchor: float) -> float:
    """Shift phi_raw by a multiple of 2*pi to land nearest the anchor."""
    k = np.round((anchor - phi_raw) / (2.0 * np.pi))
    return phi_raw + 2.0 * np.pi * k


def decompose(omega: float, delta: float, method: str,
              s: Optional[SystemParams] = None,
              window: float = DEFAULT_WINDOW,
              opts: Optional[IntegratorOpts] = None) -> PhaseDecomposition:
    """Full (phi, alpha, gamma) for a single 2*pi pulse.

    method "analytic" ignores precession by construction. method "numeric"
    propagates with s.omega_B over [-window/Omega, window/Omega] with the
    spin in |z> at the pulse center (free precession carries it there from
    the window start) and reads phi as the arg of the z amplitude with free
    precession from the center to t_end factored out, unwrapped to the
    branch nearest the analytic value (arg alone is defined mod 2*pi). At
    omega_B = 0 this is the plain |z> start and arg<z|psi(t_end)> readout.
    """
    s = s or SystemParams()
    phi_a = overall_phase(omega, delta)
    if method == "analytic":
        alpha = dynamic_phase_analytic(omega, delta, window)
        return _as_decomposition(phi_a, alpha, "analytic", omega, delta)
    if method == "numeric":
        phi_raw, alpha = _numeric_raw(omega, delta, s, window, opts)
        phi = _nearest_branch(phi_raw, phi_a)
        return _as_decomposition(phi, alpha, "numeric", omega, delta)
    raise ValueError("method must be 'analytic' or 'numeric'")


def sweep_ratio(r_values: Sequence[float], method: str,
                s: Optional[SystemParams] = None, omega: float = 1.0,
                window: float = DEFAULT_WINDOW,
                opts: Optional[IntegratorOpts] = None):
    """One decomposition per ratio, in input order, each equal to
    decompose(omega, omega/r, method, ...).

    Method "analytic" takes every dynamic phase from one
    dynamic_phase_analytic call over the grid's detunings. Method "numeric"
    propagates each entry independently (the phase branch is anchored to
    the analytic curve pointwise rather than chained along the grid, which
    keeps entries order-independent and parallel-safe).
    """
    r = np.asarray(r_values, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r == 0.0):
        raise ValueError("ratios must be finite and nonzero")
    with np.errstate(over="ignore"):    # an overflowed detuning is refused by name
        deltas = omega / r
    if method == "analytic":
        alphas = dynamic_phase_analytic(omega, deltas, window)
        return [_as_decomposition(overall_phase(omega, d), a, "analytic", omega, d)
                for d, a in zip(deltas, alphas)]
    return [decompose(omega, d, method, s, window, opts) for d in deltas]
