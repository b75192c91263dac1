"""Gate reconstruction and average fidelity for the canceling-pair rotation.

The actual operation is the propagated three-level evolution truncated to
the (|zbar>, |z>) block, kept nonunitary (population stranded in the trion
level or lost to decay is error, not normalization). The ideal operation
is by default the "interleaved" target: each pulse idealized as an
instantaneous z-rotation at its center with exact free precession between,
so known precession is part of the target frame and only pulse-induced
error is scored. The "bare" target diag(1, e^{i*gamma}) counts all
precession as error; both conventions are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    SystemParams,
    bandwidth_from_duration,
    free_precession,
    larmor_from_field,
    two_pi_pulse,
)
from .propagator import IntegratorOpts, evolve_operator, schedule_for_pulses, truncate_qubit
from .pulsedesign import design_for_angle
from .special import overall_phase


class NonContraction(ValueError):
    """Actual operator has a singular value above 1, not physical."""


@dataclass(frozen=True, eq=False)
class GateReport:
    u_actual: np.ndarray       # 2x2 complex, possibly nonunitary
    u_ideal: np.ndarray        # 2x2 complex unitary
    fidelity: float
    residual_population: float  # 1 - final norm^2 starting from |z>
    B: float                   # Tesla
    gamma_tot: float           # rad


def ideal_rotation(gamma: float) -> np.ndarray:
    """z-rotation diag(1, e^{i*gamma}) in basis (zbar, z), global phase fixed
    by leaving the zbar amplitude untouched."""
    return np.diag([1.0, np.exp(1j * gamma)]).astype(complex)


def average_fidelity(u: np.ndarray, u_ideal: np.ndarray) -> float:
    """Input-state-averaged fidelity of u against the unitary u_ideal.

    Evaluates the state-averaged two-level sum over I = U^dagger U_id,
    (1/3) sum_i |I_ii|^2 + (1/6) sum_{i != j} (|I_ij|^2 + I_ii conj(I_jj)),
    with the off-diagonal sum over both ordered pairs. Valid for nonunitary
    contractions u; raises if u is not a contraction.
    """
    u = np.asarray(u, dtype=complex)
    u_ideal = np.asarray(u_ideal, dtype=complex)
    smax = np.linalg.svd(u, compute_uv=False).max()
    if smax > 1.0 + 1e-6:
        raise NonContraction("largest singular value %.9f exceeds 1" % smax)
    overlap = u.conj().T @ u_ideal
    d0, d1 = overlap[0, 0], overlap[1, 1]
    f = (abs(d0) ** 2 + abs(d1) ** 2) / 3.0
    f += (abs(overlap[0, 1]) ** 2 + abs(overlap[1, 0]) ** 2
          + d0 * np.conj(d1) + d1 * np.conj(d0)) / 6.0
    assert abs(f.imag) < 1e-12
    return float(f.real)


def _sequence_for(gamma_target, omega, spacing):
    """Pulse list and per-pulse ideal phases for the target angle."""
    if abs(gamma_target) > np.pi:
        raise ValueError("|gamma_target| must be <= pi")
    if abs(gamma_target) == np.pi:
        # a pi rotation needs only one resonant pulse
        return [two_pi_pulse(omega, 0.0, 0.0)], [gamma_target]
    pair = design_for_angle(gamma_target, omega, spacing)
    pulses = [pair.pulse1, pair.pulse2]
    phis = [overall_phase(omega, p.detuning) for p in pulses]
    return pulses, phis


def _ideal_operator(convention, phis, centers, window, omega_B):
    if convention == "bare":
        return ideal_rotation(sum(phis))
    if convention != "interleaved":
        raise ValueError("ideal convention must be 'interleaved' or 'bare'")
    t0, t1 = window
    u = free_precession(omega_B, centers[0] - t0)
    for k, phi in enumerate(phis):
        u = ideal_rotation(phi) @ u
        t_next = centers[k + 1] if k + 1 < len(centers) else t1
        u = free_precession(omega_B, t_next - centers[k]) @ u
    return u


def gate_report(gamma_target: float, B: float, g: float = 0.57,
                tau_d: float = 1.5, tau_t: float = 900.0,
                spacing: Optional[float] = None,
                ideal: str = "interleaved", decay: bool = True,
                duration_convention: str = "time-constant",
                opts: Optional[IntegratorOpts] = None) -> GateReport:
    """Simulate the geometric rotation by gamma_target and score it.

    Defaults are the reference operating point: B = 0.29 T, g = 0.57,
    tau_d = 1.5 ps, trion lifetime 900 ps, centers 14*tau_d apart.
    """
    omega = bandwidth_from_duration(tau_d, duration_convention)
    omega_B = larmor_from_field(B, g)
    spacing = 14.0 * tau_d if spacing is None else float(spacing)
    pulses, phis = _sequence_for(gamma_target, omega, spacing)
    sched = schedule_for_pulses(pulses)
    decay_on = decay and np.isfinite(tau_t)
    s = SystemParams(omega_B=omega_B, trion_lifetime=tau_t, decay_enabled=decay_on)
    u3 = evolve_operator(sched, s, opts)
    u = truncate_qubit(u3)
    loss = float(1.0 - np.sum(np.abs(u3[:, 1]) ** 2))
    centers = [p.center for p in pulses]
    u_id = _ideal_operator(ideal, phis, centers, sched.window, omega_B)
    return GateReport(u_actual=u, u_ideal=u_id,
                      fidelity=average_fidelity(u, u_id),
                      residual_population=loss, B=float(B),
                      gamma_tot=float(sum(phis)))


def fidelity_sweep(gamma_grid: Sequence[float], B_list: Sequence[float],
                   **params) -> list:
    """GateReport per (gamma, B), gamma-major order."""
    return [gate_report(g, B, **params) for g in gamma_grid for B in B_list]


def population_sweep(gamma_grid: Sequence[float], B: float, **params) -> list:
    """(gamma, population loss) pairs after the two-pulse sequence."""
    return [(float(g), gate_report(g, B, **params).residual_population)
            for g in gamma_grid]
