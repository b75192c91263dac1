"""Gate reconstruction and average fidelity for the canceling-pair rotation.

The actual operation is the propagated three-level evolution truncated to
the (|zbar>, |z>) block, kept nonunitary (population stranded in the trion
level or lost to decay is error, not normalization). The ideal operation
is by default the "interleaved" target: each pulse idealized as an
instantaneous z-rotation at its center with exact free precession between,
so known precession is part of the target frame and only pulse-induced
error is scored. The "bare" target diag(1, e^{i*gamma}) counts all
precession as error; both conventions are exposed.

A pair with gamma < 0 is the |gamma| pair run backwards: pulses in
reverse order, detunings negated, centers reflected in the window, at
the same eta, field and decay. Its operator is D*U^dagger*D, with U the
|gamma| pair's operator and D = diag(1, -1, 1), so fidelity_sweep
integrates each +-gamma pair once. The lab-frame H has a zero diagonal
and every coupling touches |z>, so D*H*D = -H, while the decay term
-i*Gamma on the trion diagonal is unchanged: D*H_eff*D = -H_eff^dagger.
D*U^dagger*D is then the propagator of H_eff(t0 + t1 - t), the reversed
pair. The integrator keeps the identity to rounding: the graded grid of
a pair mirrors about the window's middle, and Magnus-6 on Gauss nodes is
time-symmetric (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).
Against direct propagation of the reversed pair (240 gates: the README's
12 angles from 0.25 to 3, tau_d = 1.5 and 1 ps, 0 to 8 T, decay on and
off) the full operator differs by at most 1.5e-13 and the qubit block by
1.2e-14, on the graded grid and with an explicit dt alike. The reversed
detunings are design_for_angle(-gamma)'s to 1.8e-15 (relative) at those
angles; the two part where tan((pi - |gamma|)/4) loses digits (9e-11 at
|gamma| = 3.14159). So F(gamma) = F(-gamma) holds by construction.
fidelity_sweep reverses a gate in one place, from the pulse list it
integrates: ideal phases reversed and negated (overall_phase is odd),
centers reflected as c -> c_first + c_last - c. That maps the window of
schedule_for_pulses onto itself only when the end pulses share a
bandwidth, as every gate here does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    SystemParams,
    _require_finite,
    bandwidth_from_duration,
    free_precession,
    larmor_from_field,
    two_pi_pulse,
)
from .propagator import IntegratorOpts, evolve_operators, schedule_for_pulses, truncate_qubit
from .pulsedesign import NotFinite, design_for_angle
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
    """The pulse list integrated for the target angle, with each pulse's
    ideal phase: the |gamma_target| pair (fidelity_sweep runs it backwards
    for gamma_target < 0), or one resonant pulse at +-pi."""
    _require_finite(gamma_target=gamma_target)
    if abs(gamma_target) > np.pi:
        raise ValueError("|gamma_target| must be <= pi")
    if abs(gamma_target) == np.pi:
        # a pi rotation needs only one resonant pulse
        return [two_pi_pulse(omega, 0.0, 0.0)], [gamma_target]
    pair = design_for_angle(abs(gamma_target), omega, spacing)
    pulses = [pair.pulse1, pair.pulse2]
    return pulses, [overall_phase(p.bandwidth, p.detuning) for p in pulses]


def _reversed_operator(u3):
    """D*u3^dagger*D with D = diag(1, -1, 1): the operator of the
    time-reversed schedule, from the operator u3 of the forward one."""
    d = np.array([1.0, -1.0, 1.0])
    return d[:, None] * u3.conj().T * d


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


def gate_report(gamma_target: float, B: float, **params) -> GateReport:
    """Simulate the geometric rotation by gamma_target and score it: the
    one-gate case of fidelity_sweep, which takes the same keywords."""
    return fidelity_sweep([gamma_target], [B], **params)[0]


def fidelity_sweep(gamma_grid: Sequence[float], B_list: Sequence[float],
                   g: float = 0.57, tau_d: float = 1.5, tau_t: float = 900.0,
                   spacing: Optional[float] = None, ideal: str = "interleaved",
                   decay: bool = True, duration_convention: str = "time-constant",
                   opts: Optional[IntegratorOpts] = None) -> list:
    """GateReport per (gamma, B), gamma-major order.

    Defaults are the reference operating point: g = 0.57, tau_d = 1.5 ps,
    trion lifetime 900 ps, centers 14*tau_d apart. tau_t = inf turns decay
    off, as does decay=False (kept because benchmarks/test_checks.py
    passes it). Every gate is designed first, all operators come from one
    evolve_operators call, and each gate is scored from its own. One
    operator is integrated per distinct pulse list and system: a gate
    with -pi < gamma < 0 is scored from D*U^dagger*D of its |gamma| pair,
    reversed here alone (module docstring; its end pulses must share a
    bandwidth), and +-pi share their single pulse, so a sweep over
    +-gamma integrates each pair once. A lone gate_report takes the
    same path, so no report depends on the rest of its sweep. A default
    spacing or a detuning that overflows is refused by the name of
    tau_d, from which it follows.
    """
    omega = bandwidth_from_duration(tau_d, duration_convention)
    if spacing is None:
        spacing = 14.0 * tau_d
        if not math.isfinite(spacing):
            raise ValueError("tau_d must be small enough that the default spacing "
                             "14*tau_d is finite, got %r" % float(tau_d))
    spacing = float(spacing)
    lifetime = tau_t if decay else np.inf
    scheds, systems, index, scoring = [], [], {}, []
    for gamma in gamma_grid:
        try:
            pulses, phis = _sequence_for(gamma, omega, spacing)
        except NotFinite:
            raise ValueError("tau_d must be large enough that the pulse detunings are "
                             "finite, got %r at gamma = %r"
                             % (float(tau_d), float(gamma))) from None
        sched = schedule_for_pulses(pulses)
        centers = [p.center for p in pulses]
        reverse = -np.pi < gamma < 0
        if reverse:
            centers = [centers[0] + centers[-1] - c for c in reversed(centers)]
            phis = [-phi for phi in reversed(phis)]
        for B in B_list:
            omega_B = larmor_from_field(B, g)
            system = SystemParams(omega_B=omega_B, trion_lifetime=lifetime)
            k = index.setdefault((tuple(pulses), system), len(scheds))
            if k == len(scheds):
                scheds.append(sched)
                systems.append(system)
            u_id = _ideal_operator(ideal, phis, centers, sched.window, omega_B)
            scoring.append((k, reverse, u_id, float(B), float(sum(phis))))
    u3s = evolve_operators(scheds, systems, opts)
    return [_report(_reversed_operator(u3s[k]) if reverse else u3s[k], *args)
            for k, reverse, *args in scoring]


def _report(u3, u_id, B, gamma_tot) -> GateReport:
    """Score one gate from its three-level operator u3."""
    u = truncate_qubit(u3)
    loss = float(1.0 - np.sum(np.abs(u3[:, 1]) ** 2))
    return GateReport(u_actual=u, u_ideal=u_id, fidelity=average_fidelity(u, u_id),
                      residual_population=loss, B=B, gamma_tot=gamma_tot)
