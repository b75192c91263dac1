"""Decomposition of the pulse-induced phase into dynamic and geometric parts.

Two routes, kept structurally independent on purpose:

* method I ("analytic"): the closed-form integrand for the dynamic phase,
  valid in the slow-precession limit, summed by a fixed composite
  Gauss-Legendre rule (16 nodes per panel, panels 1/Omega wide, checked
  against panels twice as wide); the overall phase comes from the arctan
  formula.
* method II ("numeric"): full propagation of the three-level system, the
  dynamic phase as minus the time integral of the Hamiltonian expectation
  value on the trajectory grid, the overall phase read off the final state.

The geometric part is the difference in both cases.
"""

from __future__ import annotations

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

DEFAULT_WINDOW = 20.0    # half-width in units of 1/Omega; sech^2(20) ~ 1e-17
# beyond this x, sech(x)**2 ~ 4*exp(-2x) is below half the smallest
# subnormal and rounds to exactly 0 (x ~ 373.3)
SECH2_UNDERFLOW = 0.5 * float(np.log(8.0) - np.log(np.finfo(float).smallest_subnormal))
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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


def _as_decomposition(phi, alpha, method, ratio) -> PhaseDecomposition:
    return PhaseDecomposition(overall=float(phi), dynamic=float(alpha),
                              geometric=float(phi - alpha), method=method,
                              ratio=float(ratio))


def _gauss_legendre(f, lim: float, n: int) -> float:
    """Integral of f over [-lim, lim] by GL_NODES on n equal panels. The
    panel centers are counted from 0, so nodes near the center, where the
    integrands here peak, carry no rounding from lim."""
    h = 2.0 * lim / n
    mid = h * (np.arange(n) - 0.5 * (n - 1))
    values = f((mid[:, None] + 0.5 * h * GL_NODES).ravel())
    return 0.5 * h * float(np.sum(values.reshape(n, -1) @ GL_WEIGHTS))


def dynamic_phase_analytic(omega: float, delta: float,
                           window: float = DEFAULT_WINDOW) -> float:
    """Dynamic phase of one 2*pi pulse (Omega = eta) from the closed form.

    The integrand is assembled in its raw oscillatory-factor shape, products
    of (1 -+ tanh)^(+-i*Delta/2/Omega) with the conjugate pair summed, not
    in any algebraically simplified variant; the power
    factors are evaluated through logs so the tails stay finite. It is
    integrated over [-L, L], L = min(window, SECH2_UNDERFLOW)/Omega (the
    integrand is exactly 0 beyond SECH2_UNDERFLOW/Omega, so the clip drops
    nothing), by 16-node Gauss-Legendre panels at most 1/Omega wide;
    QuadratureFailure is raised when panels twice as wide give a sum
    further away than 1e-7*max(1, |value|).

    At Delta = 0 the limit form is the analytic zero (odd integrand).
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not window >= 10.0:
        raise ValueError("window must be >= 10 (integrand support)")
    if delta == 0.0:
        return 0.0
    half = delta / (2.0 * omega)

    def integrand(t):
        x = omega * t
        th = np.tanh(x)
        # log(1 -+ tanh x) without cancellation: ln 2 - ln(1 + e^(+-2x))
        log_1m = np.log(2.0) - np.logaddexp(0.0, 2.0 * x)
        log_1p = np.log(2.0) - np.logaddexp(0.0, -2.0 * x)
        # arg of e^(-i*Delta*t) * (1-th)^(-i*half) * (1+th)^(i*half)
        theta = -delta * t - half * log_1m + half * log_1p
        re_part = delta * np.cos(theta) + omega * th * np.sin(theta)
        return sech(x) ** 2 * 2.0 * re_part

    half_span = min(window, SECH2_UNDERFLOW)
    n = int(np.ceil(half_span))             # coarse panels, at most 2/Omega wide
    value = _gauss_legendre(integrand, half_span / omega, 2 * n)
    err = abs(value - _gauss_legendre(integrand, half_span / omega, n))
    if err > 1e-7 * max(1.0, abs(value)):
        raise QuadratureFailure(
            "dynamic phase quadrature error %.2e too large" % err)
    return omega ** 2 / (delta ** 2 + omega ** 2) * value


def dynamic_phase_numeric(traj: Trajectory, sched: PulseSchedule,
                          s: SystemParams) -> float:
    """Minus the trapezoid integral of <psi|H|psi> on the trajectory grid.

    Uses the Hermitian Hamiltonian (precession + pulse coupling); a
    trajectory produced with decay on is rejected since the decomposition
    is only defined for unitary evolution.
    """
    if s.decay_enabled:
        raise DecayForbidden("phase decomposition needs decay off")
    cb, cz, ct = traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]
    v = model.coupling(traj.times, sched.pulses)
    expect = (2.0 * s.omega_B * np.real(np.conj(cb) * cz)
              + 2.0 * np.real(v * np.conj(cz) * ct))
    return float(-np.trapezoid(expect, traj.times))


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
    ratio = np.inf if delta == 0.0 else omega / delta
    phi_a = overall_phase(omega, delta)
    if method == "analytic":
        alpha = dynamic_phase_analytic(omega, delta, window)
        return _as_decomposition(phi_a, alpha, "analytic", ratio)
    if method == "numeric":
        phi_raw, alpha = _numeric_raw(omega, delta, s, window, opts)
        phi = _nearest_branch(phi_raw, phi_a)
        return _as_decomposition(phi, alpha, "numeric", ratio)
    raise ValueError("method must be 'analytic' or 'numeric'")


def sweep_ratio(r_values: Sequence[float], method: str,
                s: Optional[SystemParams] = None, omega: float = 1.0,
                window: float = DEFAULT_WINDOW,
                opts: Optional[IntegratorOpts] = None):
    """One decomposition per ratio, in input order.

    Each entry is computed independently (the numeric phase branch is
    anchored to the analytic curve pointwise rather than chained along the
    grid, which keeps entries order-independent and parallel-safe).
    """
    out = []
    for r in r_values:
        if not np.isfinite(r) or r == 0.0:
            raise ValueError("ratios must be finite and nonzero")
        delta = omega / r
        out.append(decompose(omega, delta, method, s, window, opts))
    return out
