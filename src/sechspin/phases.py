"""Decomposition of the pulse-induced phase into dynamic and geometric parts.

Two routes, kept structurally independent on purpose:

* method I ("analytic"): the dynamic phase of the closed-form
  (Rosen-Zener) state, valid in the slow-precession limit. Its integrand
  is elementary, so alpha = 4r/(1+r^2)*tanh(window) exactly (see
  dynamic_phase_analytic); the overall phase comes from the arctan
  formula.
* method II ("numeric"): full propagation of the three-level system on
  the graded grid, the dynamic phase as minus the time integral of the
  Hamiltonian expectation value by a two-point Hermite rule with exact
  first and second derivatives on the trajectory times, the overall phase
  read off the final state. The window is symmetric about the pulse
  center c, so the grid is mirrored about c and, while the half fits
  one chunk, propagate integrates only [c, t_end]; the earlier half
  follows by time reversal, psi(c - s) = (V(s)^-1)^T psi(c) through
  cofactors, with V(s) = U(c + s, c) and
  psi(c) = V(t_end - c)^T psi(t_start) (see propagator). A longer half,
  or a run with an explicit IntegratorOpts.dt, steps forward over the
  whole window.

The geometric part is the difference in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import SystemParams, two_pi_pulse
from .propagator import IntegratorOpts, PulseSchedule, Trajectory, propagate
from .special import overall_phase
from . import model

# half-width in units of 1/Omega. The truncation is larger than sech^2(20)
# ~ 1e-17 suggests: the spin starts in |z> where the infinite pulse would
# already have moved ~e^-20 of amplitude into the trion, and numeric alpha
# feels that at first order. At B = 0 it misses 4r/(1+r^2) by 2.4e-8 at
# r = 10, 4.9e-9 at r = +-100 and 2.6e-9 at r = 1 (<= 6.8e-13 at these r
# with window 30).
DEFAULT_WINDOW = 20.0


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


def dynamic_phase_analytic(omega: float, delta, window: float = DEFAULT_WINDOW):
    """Dynamic phase of one 2*pi pulse (Omega = eta) over [-L, L],
    L = window/Omega, in closed form: alpha = 4r/(1+r^2)*tanh(window),
    r = Omega/Delta.

    On the Rosen-Zener state the z row couples only to the trion, so
    V*c_tau = i*dc_z/dt and <H> = -2*Im(conj(c_z)*dc_z/dt). With
    c_z = 1 - z/c, z = (tanh(eta*t) + 1)/2 and c = (1 + i*Delta/eta)/2
    this is <H> = -2*(Im c/|c|^2)*dz/dt, and minus its integral over
    [-L, L] is alpha = (Delta/eta)/|c|^2*tanh(eta*L). tanh(window) is
    exactly 1.0 from window ~19.06 on. alpha is even under r -> 1/r, so it
    is formed from s = min(|Delta|, Omega)/max(|Delta|, Omega) <= 1, whose
    square cannot overflow, and is odd in Delta (0 at Delta = 0).

    delta may be an array; the result has its shape. A detuning that is
    not finite is refused with ValueError.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not window >= 10.0:
        raise ValueError("window must be >= 10 (integrand support)")
    d = np.asarray(delta, dtype=float)
    bad = ~np.isfinite(d)
    if bad.any():
        raise ValueError("detuning must be finite, got %r" % float(d[bad][0]))
    mag = np.abs(d)
    s = np.minimum(mag, omega) / np.maximum(mag, omega)
    alpha = np.sign(d) * (4.0 * math.tanh(window)) * s / (1.0 + s * s)
    return float(alpha) if d.ndim == 0 else alpha


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
