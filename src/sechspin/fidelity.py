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
fidelity_sweep reverses a gate in one place (_time_reversed), from the
pulse list it integrates: ideal phases reversed and negated
(overall_phase is odd), centers reflected as c -> c_first + c_last - c.
That maps the window of schedule_for_pulses onto itself only when the
end pulses share a bandwidth, as every gate here does.

A sweep is scored in one pass over stacked arrays, whatever its size:
the reversal D*U^dagger*D of every -gamma gate, the population loss,
the contraction check and the average fidelity each take one array
operation for all gates, and the ideal operators one pass a pulse count
over all angles and fields. ideal_rotation, free_precession,
_ideal_operator and average_fidelity work over leading axes, each block
with the bits it gets alone, so gate_report, the sweep and the tests
share one path. The contraction check takes the largest singular value
of each 2x2 block in closed form, not by an SVD a gate.
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


def ideal_rotation(gamma) -> np.ndarray:
    """z-rotation diag(1, e^{i*gamma}) in basis (zbar, z), global phase fixed
    by leaving the zbar amplitude untouched: (2, 2), or (..., 2, 2) over
    the leading axes of gamma."""
    gamma = np.asarray(gamma, dtype=float)
    u = np.zeros(gamma.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = 1.0
    u[..., 1, 1] = np.exp(1j * gamma)
    return u


def _largest_singular_value(u: np.ndarray) -> np.ndarray:
    """Largest singular value of each 2x2 block of u (..., 2, 2), in closed
    form: the square root of the larger eigenvalue of u^dagger u =
    [[p, q], [q*, r]], (p + r)/2 + hypot((p - r)/2, |q|). Only p - r can
    cancel, and it enters next to (p + r)/2, so the result keeps full
    relative precision."""
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    p = a.real ** 2 + a.imag ** 2 + c.real ** 2 + c.imag ** 2
    r = b.real ** 2 + b.imag ** 2 + d.real ** 2 + d.imag ** 2
    q = np.abs(np.conj(a) * b + np.conj(c) * d)
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def average_fidelity(u, u_ideal):
    """Input-state-averaged fidelity of u against the unitary u_ideal.

    Evaluates the state-averaged two-level sum over I = U^dagger U_id,
    (1/3) sum_i |I_ii|^2 + (1/6) sum_{i != j} (|I_ij|^2 + I_ii conj(I_jj)),
    with the off-diagonal sum over both ordered pairs. Valid for nonunitary
    contractions u; raises if any u is not a contraction. u and u_ideal
    are (2, 2), which gives a float, or (..., 2, 2) stacks, which give an
    array over their broadcast leading axes, each entry with the bits its
    pair gets alone.
    """
    u = np.asarray(u, dtype=complex)
    u_ideal = np.asarray(u_ideal, dtype=complex)
    smax = _largest_singular_value(u)
    bad = np.flatnonzero(smax > 1.0 + 1e-6)
    if bad.size:
        raise NonContraction("largest singular value %.9f exceeds 1"
                             % np.ravel(smax)[bad[0]])
    overlap = np.conj(u).swapaxes(-1, -2) @ u_ideal
    d0, d1 = overlap[..., 0, 0], overlap[..., 1, 1]

    def sq_abs(z):
        # by hypot, as abs takes it of one complex number (numpy's abs of
        # a complex array can differ in the last bit)
        return np.hypot(z.real, z.imag) ** 2

    # the off-diagonal sum is real, and is rounded as numpy's complex
    # arithmetic rounds it: I_00 conj(I_11) and I_11 conj(I_00) share their
    # real part, their imaginary parts cancel exactly, and a complex number
    # is divided by 6 as a product with 1/6
    cross = d0.real * d1.real - d0.imag * -d1.imag
    off = sq_abs(overlap[..., 0, 1]) + sq_abs(overlap[..., 1, 0]) + cross + cross
    f = (sq_abs(d0) + sq_abs(d1)) / 3.0 + off * (1.0 / 6.0)
    return float(f) if f.ndim == 0 else f


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


def _time_reversed(centers, phis):
    """Centers and ideal phases of a pulse list run backwards: the pulses
    in reverse order, each center reflected as c -> c_first + c_last - c
    and each phase negated (overall_phase is odd in the detuning)."""
    return ([centers[0] + centers[-1] - c for c in reversed(centers)],
            [-phi for phi in reversed(phis)])


def _reversed_operator(u3):
    """D*u3^dagger*D with D = diag(1, -1, 1) for each (3, 3) block of u3:
    the operator of the time-reversed schedule, from the operator u3 of
    the forward one."""
    d = np.array([1.0, -1.0, 1.0])
    return d[:, None] * np.conj(u3).swapaxes(-1, -2) * d


def _ideal_operator(convention, phis, centers, window, omega_B):
    """Ideal operator of K pulses over the window (t0, t1): phis and
    centers (..., K), window (..., 2) and omega_B (...) broadcast over
    their leading axes to (..., 2, 2), each block with the bits it gets
    alone. "bare" is the rotation by the summed phases; "interleaved"
    rotates by each phase at its pulse's center, with exact free
    precession from t0 to the first center, between centers and on to t1."""
    phis = np.asarray(phis, dtype=float)
    if convention == "bare":
        return ideal_rotation(phis.sum(axis=-1))
    if convention != "interleaved":
        raise ValueError("ideal convention must be 'interleaved' or 'bare'")
    centers, window = np.asarray(centers, dtype=float), np.asarray(window, dtype=float)
    u = free_precession(omega_B, centers[..., 0] - window[..., 0])
    for k in range(phis.shape[-1]):
        u = ideal_rotation(phis[..., k]) @ u
        t_next = centers[..., k + 1] if k + 1 < phis.shape[-1] else window[..., 1]
        u = free_precession(omega_B, t_next - centers[..., k]) @ u
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
    evolve_operators call, and every gate is scored in one pass over
    stacked arrays. One operator is integrated per distinct pulse list and
    system: a gate with -pi < gamma < 0 is scored from D*U^dagger*D of its
    |gamma| pair, reversed here alone (module docstring; its end pulses
    must share a bandwidth), and +-pi share their single pulse, so a sweep
    over +-gamma integrates each pair once. Each field's SystemParams is
    built when its first gate is reached, so the refusals come in gate
    order. A lone gate_report takes the same path, so no report depends
    on the rest of its sweep. A default spacing or a detuning that
    overflows is refused by the name of tau_d, from which it follows.
    """
    omega = bandwidth_from_duration(tau_d, duration_convention)
    if spacing is None:
        spacing = 14.0 * tau_d
        if not math.isfinite(spacing):
            raise ValueError("tau_d must be small enough that the default spacing "
                             "14*tau_d is finite, got %r" % float(tau_d))
    spacing = float(spacing)
    lifetime = tau_t if decay else np.inf
    fields = [None] * len(B_list)
    scheds, systems, index, designs = [], [], {}, []
    ops, reverse, labels = [], [], []
    for gamma in gamma_grid:
        try:
            pulses, phis = _sequence_for(gamma, omega, spacing)
        except NotFinite:
            raise ValueError("tau_d must be large enough that the pulse detunings are "
                             "finite, got %r at gamma = %r"
                             % (float(tau_d), float(gamma))) from None
        sched = schedule_for_pulses(pulses)
        centers = [p.center for p in pulses]
        backwards = -np.pi < gamma < 0
        if backwards:
            centers, phis = _time_reversed(centers, phis)
        designs.append((phis, centers, sched.window))
        gamma_tot = float(sum(phis))
        for j, B in enumerate(B_list):
            if fields[j] is None:
                fields[j] = SystemParams(omega_B=larmor_from_field(B, g), trion_lifetime=lifetime)
            k = index.setdefault((tuple(pulses), fields[j]), len(scheds))
            if k == len(scheds):
                scheds.append(sched)
                systems.append(fields[j])
            ops.append(k)
            reverse.append(backwards)
            labels.append((float(B), gamma_tot))
    if not labels:
        return []
    u_ideal = _ideal_operators(ideal, designs, [s.omega_B for s in fields])
    # a row per gate, fresh, so that reversing a row changes no other
    u3 = np.array(evolve_operators(scheds, systems, opts)).reshape(-1, 3, 3)[ops]
    reverse = np.array(reverse, dtype=bool)
    u3[reverse] = _reversed_operator(u3[reverse])
    u = truncate_qubit(u3)
    fidelity = average_fidelity(u, u_ideal)
    loss = 1.0 - np.sum(np.abs(u3[..., 1]) ** 2, axis=-1)
    return [GateReport(u_actual=u[i], u_ideal=u_ideal[i], fidelity=float(fidelity[i]),
                       residual_population=float(loss[i]), B=B, gamma_tot=gamma_tot)
            for i, (B, gamma_tot) in enumerate(labels)]


def _ideal_operators(convention, designs, omega_B) -> np.ndarray:
    """Ideal operator of every (design, omega_B) pair, design-major, as a
    (designs * fields, 2, 2) stack: designs holds (phis, centers, window)
    per target angle, and the designs of each pulse count take one
    _ideal_operator pass over all fields."""
    out = np.empty((len(designs), len(omega_B), 2, 2), dtype=complex)
    counts = [len(phis) for phis, *_ in designs]
    for n in set(counts):
        rows = [i for i, count in enumerate(counts) if count == n]
        phis, centers, window = (np.array([designs[i][j] for i in rows])[:, None]
                                 for j in range(3))
        out[rows] = _ideal_operator(convention, phis, centers, window, np.array(omega_B))
    return out.reshape(-1, 2, 2)
